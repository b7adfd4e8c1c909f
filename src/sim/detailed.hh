/**
 * @file
 * The detailed trace-driven cache simulator — the paper's "C simulator"
 * (Table 3 comparator, and the tool used to validate the board design).
 *
 * Where the board path is a bare tag lookup plus a table transition,
 * this simulator models what software cache simulators actually model:
 * an event queue carrying per-access latency through directory lookup,
 * SDRAM bank service and response; per-bank contention; miss-latency
 * and reuse-distance histograms. That extra fidelity is exactly why
 * trace-driven software simulation is orders of magnitude slower than
 * the board (Table 3) — the comparison here is honest, not staged.
 */

#ifndef MEMORIES_SIM_DETAILED_HH
#define MEMORIES_SIM_DETAILED_HH

#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "cache/tagstore.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace memories::sim
{

/** Latency parameters of the detailed model (bus cycles). */
struct DetailedParams
{
    cache::CacheConfig cache{64 * MiB, 4, 128,
                             cache::ReplacementPolicy::LRU};
    unsigned directoryLookupCycles = 4;
    unsigned sdramServiceCycles = 8;
    unsigned memoryLatencyCycles = 60;
    unsigned sdramBanks = 4;
    /** Sample 1-in-N accesses into the reuse-distance histogram. */
    unsigned reuseSamplePeriod = 16;
};

/** Results of a detailed simulation run. */
struct DetailedStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double meanLatencyCycles = 0.0;
    double meanBankOccupancy = 0.0;

    double missRatio() const
    {
        return accesses == 0 ? 0.0
                             : static_cast<double>(misses) /
                                   static_cast<double>(accesses);
    }
};

/** Event-driven single-cache simulator consuming bus transactions. */
class DetailedCacheSimulator
{
  public:
    explicit DetailedCacheSimulator(const DetailedParams &params,
                                    std::uint64_t seed = 1);

    /** Simulate one transaction in full detail. */
    void process(const bus::BusTransaction &txn);

    /**
     * Replay the whole bus trace at @p path (trace::readBusTrace) and
     * finish(). @return transactions processed.
     */
    std::uint64_t runTrace(const std::string &path);

    /** Drain the event queue (call at end of run). */
    void finish();

    DetailedStats stats() const;

    /** Latency of every completed access (cycles; its mean is stats()'s). */
    const telemetry::Histogram &latencyHistogram() const
    {
        return latencyHist_;
    }

    /** Sampled reuse-distance histogram (log2 buckets of lines). */
    const telemetry::Histogram &reuseHistogram() const { return reuseHist_; }

  private:
    enum class EventKind : std::uint8_t
    {
        DirectoryLookup,
        SdramService,
        MemoryResponse,
        Complete,
    };

    struct Event
    {
        Cycle when;
        EventKind kind;
        Addr addr;
        bool miss;
        Cycle issued;

        bool operator>(const Event &o) const { return when > o.when; }
    };

    void advanceTo(Cycle cycle);
    void recordReuse(Addr line_addr);

    DetailedParams params_;
    cache::TagStore tags_;

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    std::vector<Cycle> bankFreeAt_;
    Cycle now_ = 0;

    std::uint64_t accesses_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t bankBusySum_ = 0;

    telemetry::Histogram latencyHist_;
    telemetry::Histogram reuseHist_;

    /** Recent line-address ring for sampled reuse distances. */
    std::vector<Addr> reuseRing_;
    std::size_t reuseRingPos_ = 0;
    std::uint64_t reuseCounter_ = 0;
};

} // namespace memories::sim

#endif // MEMORIES_SIM_DETAILED_HH
