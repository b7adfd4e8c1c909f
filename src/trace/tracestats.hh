/**
 * @file
 * Off-line trace analysis: the console-side tools used on traces the
 * board captured (paper section 2.3: "a mechanism to collect traces
 * for finer and repeatable off-line analysis").
 *
 * TraceStats summarizes a trace (per-command and per-CPU breakdowns,
 * unique-line footprint, inter-arrival profile); slice/filter
 * utilities cut traces down for targeted replay.
 */

#ifndef MEMORIES_TRACE_TRACESTATS_HH
#define MEMORIES_TRACE_TRACESTATS_HH

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bus/transaction.hh"
#include "common/types.hh"

namespace memories::trace
{

/** Summary statistics of a bus trace. */
class TraceStats
{
  public:
    TraceStats() = default;

    /** Account one transaction. */
    void record(const bus::BusTransaction &txn);

    /** Consume an entire trace file. */
    static TraceStats fromFile(const std::string &path);

    std::uint64_t records() const { return records_; }

    /**
     * References the capture dropped after its buffer filled, as
     * declared by the trace file (0 for stats built with record()).
     * Nonzero means every number below understates the bus stream the
     * board actually saw.
     */
    std::uint64_t droppedAtCapture() const { return dropped_; }
    std::uint64_t opCount(bus::BusOp op) const
    {
        return opCounts_[static_cast<std::size_t>(op)];
    }
    std::uint64_t cpuCount(CpuId cpu) const { return cpuCounts_[cpu]; }

    /** Distinct 128B lines referenced (exact). */
    std::uint64_t uniqueLines() const { return lines_.size(); }

    /** Footprint in bytes (uniqueLines x 128). */
    std::uint64_t footprintBytes() const { return uniqueLines() * 128; }

    /** First and last bus cycles seen. */
    Cycle firstCycle() const { return first_; }
    Cycle lastCycle() const { return last_; }

    /** Mean address-bus utilization across the trace's time span. */
    double utilization() const;

    /** Read share among memory operations. */
    double readFraction() const;

    /** Human-readable report. */
    std::string report() const;

  private:
    std::uint64_t records_ = 0;
    std::uint64_t dropped_ = 0;
    std::array<std::uint64_t, bus::numBusOps> opCounts_{};
    std::array<std::uint64_t, maxHostCpus> cpuCounts_{};
    std::unordered_set<Addr> lines_;
    Cycle first_ = 0;
    Cycle last_ = 0;
    bool sawAny_ = false;
};

/**
 * The @p count references of @p stream starting at index @p from
 * (fewer when the stream is shorter).
 */
std::vector<bus::BusTransaction>
sliceTrace(const std::vector<bus::BusTransaction> &stream,
           std::uint64_t from, std::uint64_t count);

/** The references of @p stream for which @p keep returns true. */
std::vector<bus::BusTransaction>
filterTrace(const std::vector<bus::BusTransaction> &stream,
            const std::function<bool(const bus::BusTransaction &)> &keep);

} // namespace memories::trace

#endif // MEMORIES_TRACE_TRACESTATS_HH
