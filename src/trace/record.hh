/**
 * @file
 * The 8-byte packed bus-reference record.
 *
 * The MemorIES board collects traces of "up to 1 billion 8-byte wide bus
 * references" in its on-board SDRAM (paper section 2.3). BusRecord is
 * that format: one 64-bit word per reference holding the physical
 * address, the command, the requesting CPU and a compressed inter-arrival
 * time, so a captured trace can be replayed with its original pacing.
 *
 * Layout (LSB first):
 *   bits  0..47  address bits 7..54 (addresses are captured at 128B
 *                granularity: the low 7 bits never matter to a cache
 *                with >=128B lines, and dropping them buys address reach)
 *   bits 48..51  bus command (BusOp)
 *   bits 52..55  requesting CPU ID (0..15)
 *   bits 56..63  cycle delta from the previous record, saturating at 255
 */

#ifndef MEMORIES_TRACE_RECORD_HH
#define MEMORIES_TRACE_RECORD_HH

#include <cstdint>

#include "bus/transaction.hh"
#include "common/types.hh"

namespace memories::trace
{

/** Granularity at which trace records store addresses. */
inline constexpr unsigned recordAddrShift = 7; // 128 bytes

/** Saturation value of the packed cycle delta. */
inline constexpr std::uint64_t maxCycleDelta = 255;

/** One packed 8-byte bus reference. */
struct BusRecord
{
    std::uint64_t raw = 0;

    BusRecord() = default;
    explicit BusRecord(std::uint64_t r) : raw(r) {}

    /** Pack a transaction; @p prev_cycle is the previous record's cycle. */
    static BusRecord pack(const bus::BusTransaction &txn, Cycle prev_cycle);

    /** Address (aligned to the 128B capture granularity). */
    Addr addr() const;

    /** Bus command. */
    bus::BusOp op() const;

    /** True when the command field names a bus command: its four bits
     *  hold 16 values, but only bus::numBusOps commands exist. */
    bool hasKnownOp() const
    {
        return static_cast<std::size_t>(op()) < bus::numBusOps;
    }

    /** Requesting CPU. */
    CpuId cpu() const;

    /** Cycles since the previous record (saturated at 255). */
    std::uint64_t cycleDelta() const;

    /**
     * Reconstruct a transaction. @p prev_cycle is the reconstructed
     * cycle of the previous record; the returned transaction's cycle is
     * prev_cycle + cycleDelta().
     */
    bus::BusTransaction unpack(Cycle prev_cycle) const;

    bool operator==(const BusRecord &o) const { return raw == o.raw; }
};

} // namespace memories::trace

#endif // MEMORIES_TRACE_RECORD_HH
