/**
 * @file
 * Console-side analysis and export of board measurements.
 *
 * The board counts; the console computes. These helpers turn a
 * measured MemoriesBoard into the artifacts a study needs: structured
 * reports, miss-ratio curves over multi-configuration sweeps, and CSV
 * exports for external plotting.
 */

#ifndef MEMORIES_IES_ANALYSIS_HH
#define MEMORIES_IES_ANALYSIS_HH

#include <string>
#include <vector>

#include "ies/board.hh"
#include "ies/fanout.hh"

namespace memories::ies
{

/** One row of a miss-ratio curve: a configuration and its ratio. */
struct CurvePoint
{
    std::string label;        //!< cache geometry description
    std::uint64_t sizeBytes = 0;
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;
    double missRatio = 0.0;
};

/**
 * Extract a miss-ratio curve from a multi-configuration board (one
 * point per node), ordered by emulated cache size.
 */
std::vector<CurvePoint> missRatioCurve(const MemoriesBoard &board);

/** Structured snapshot of a whole board measurement. */
struct BoardReport
{
    std::uint64_t memoryTenures = 0;
    std::uint64_t committed = 0;
    std::uint64_t filtered = 0;
    std::uint64_t retriesPosted = 0;
    std::size_t bufferHighWater = 0;
    /** References lost after the capture buffer filled (0: lossless). */
    std::uint64_t captureDropped = 0;
    /** Committed tenures the buffer lost (fault-shrunk capacity). */
    std::uint64_t lostInflight = 0;
    /** Tenures an injected DropReply hid from the board. */
    std::uint64_t faultDropped = 0;
    /** Tenures shed by degraded set-sampling. */
    std::uint64_t sampledOut = 0;
    /** Tenures shed by retry-storm backoff. */
    std::uint64_t shed = 0;
    /** Tenures ignored while quarantined. */
    std::uint64_t quarantined = 0;
    /** Health state-machine transitions. */
    std::uint64_t healthTransitions = 0;
    /** Health state at capture ("healthy" unless degradation ran). */
    std::string healthState = "healthy";
    std::vector<std::string> nodeLabels;
    std::vector<NodeStats> nodes;

    /** Build a report from a board's current counters. */
    static BoardReport capture(const MemoriesBoard &board);

    /**
     * Render as CSV: one header row, one row per node, with the
     * global columns repeated (spreadsheet-friendly denormalized
     * form).
     */
    std::string toCsv() const;
};

/**
 * Structured snapshot of a fleet replay's fidelity: what the tap
 * published and, per board, what arrived — including the tenures a
 * board silently lost to transaction-buffer overflow, where a live
 * board would have retried on the bus instead. A study that ignores
 * nonzero overflow drops is comparing boards that saw different
 * traffic; this report makes that impossible to miss.
 *
 * Capture after ExperimentFleet::finish().
 */
struct FleetReport
{
    std::uint64_t published = 0;
    std::uint64_t tapFiltered = 0;
    std::uint64_t tapRetryDropped = 0;

    struct BoardLine
    {
        std::string label;
        std::uint64_t consumed = 0;
        std::uint64_t overflowDrops = 0;
        std::uint64_t backpressureStalls = 0;
        /** References this board's capture buffer dropped after fill. */
        std::uint64_t captureDropped = 0;
        /** Committed tenures lost in flight (fault-shrunk buffer). */
        std::uint64_t lostInflight = 0;
        /** Board health at capture ("healthy" unless degradation ran). */
        std::string healthState = "healthy";
    };
    std::vector<BoardLine> boards;

    static FleetReport capture(const ExperimentFleet &fleet);

    /** Sum of overflow drops across all boards. */
    std::uint64_t totalOverflowDrops() const;

    /** CSV: one header row, one row per board. */
    std::string toCsv() const;

    /** Aligned human-readable text (flags lossy boards). */
    std::string toText() const;
};

} // namespace memories::ies

#endif // MEMORIES_IES_ANALYSIS_HH
