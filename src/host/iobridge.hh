/**
 * @file
 * I/O bridge model: the non-CPU bus master.
 *
 * S70-class machines hang disk and network adapters off I/O bridges
 * that master the 6xx bus directly: DMA reads stream data out of
 * memory, DMA writes (full-line, invalidating) stream data in, plus
 * programmed-I/O register traffic the board's address filter drops.
 * The paper lists "effect of I/O on hit ratio" among the statistics
 * MemorIES collects — this device is what produces that effect: DMA
 * writes invalidate CPU cache lines and emulated directory entries.
 */

#ifndef MEMORIES_HOST_IOBRIDGE_HH
#define MEMORIES_HOST_IOBRIDGE_HH

#include <cstdint>

#include "bus/bus6xx.hh"
#include "common/random.hh"
#include "common/types.hh"

namespace memories::host
{

/** Configuration of one I/O bridge. */
struct IoBridgeConfig
{
    /** Bus ID the bridge masters with (outside the CPU range). */
    CpuId busId = 12;
    /** Base of the DMA buffer region it streams through. */
    Addr dmaBase = 0;
    /** Size of the DMA buffer region. */
    std::uint64_t dmaBytes = 16 * MiB;
    /** Fraction of DMA operations that are writes (inbound data). */
    double writeFrac = 0.5;
    /** Fraction of operations that are programmed-I/O (filtered). */
    double pioFrac = 0.1;
    /** Line size of DMA bursts (at most bus::maxTransactionSize). */
    std::uint16_t lineBytes = 128;
    std::uint64_t seed = 1;
};

/** Statistics of one I/O bridge. */
struct IoBridgeStats
{
    std::uint64_t dmaReads = 0;
    std::uint64_t dmaWrites = 0;
    std::uint64_t pioOps = 0;
    std::uint64_t retriesSeen = 0;
};

/** A DMA-capable bus master. */
class IoBridge
{
  public:
    IoBridge(const IoBridgeConfig &config, bus::Bus6xx &bus);

    /**
     * Issue one I/O operation: sequential DMA through the buffer
     * region (reads as Read, writes as WriteKill), interleaved with
     * programmed-I/O register accesses. Retries are replayed.
     */
    void step();

    const IoBridgeStats &stats() const { return stats_; }
    const IoBridgeConfig &config() const { return config_; }

  private:
    IoBridgeConfig config_;
    bus::Bus6xx &bus_;
    Rng rng_;
    std::uint64_t cursor_ = 0;
    IoBridgeStats stats_;
};

} // namespace memories::host

#endif // MEMORIES_HOST_IOBRIDGE_HH
