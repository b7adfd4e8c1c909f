/**
 * @file
 * Configuration of a MemorIES board: which emulated shared-cache nodes
 * exist, which host CPUs each one serves, and the pacing parameters of
 * the buffering fabric.
 */

#ifndef MEMORIES_IES_BOARDCONFIG_HH
#define MEMORIES_IES_BOARDCONFIG_HH

#include <string>
#include <vector>

#include "cache/config.hh"
#include "common/types.hh"
#include "fault/health.hh"
#include "protocol/table.hh"

namespace memories::ies
{

/** One emulated shared-cache node (one node-controller FPGA). */
struct NodeConfig
{
    /** Cache geometry (validated against Table 2's boardBounds()). */
    cache::CacheConfig cache{64 * MiB, 4, 128,
                             cache::ReplacementPolicy::LRU};
    /** Coherence protocol this node controller runs. */
    protocol::ProtocolTable protocol = protocol::makeMesiTable();
    /** Host CPU IDs whose references this node treats as local. */
    std::vector<CpuId> cpus;
    /**
     * Target-machine group (Figure 4): nodes in different groups are
     * alternative emulations of the same workload and never exchange
     * emulated snoops; nodes in the same group form one coherent
     * emulated machine.
     */
    unsigned targetMachine = 0;
    /**
     * Set-sampling shift: track only one of every 2^shift cache sets
     * and estimate ratios from the sample. 0 (default) tracks every
     * set, exactly like the real board. Sampling stretches the
     * directory SDRAM budget to geometries beyond Table 2's 8GB
     * ceiling — an extension the paper's design permits naturally
     * because set behaviour is independent under set-associative
     * indexing.
     */
    unsigned setSamplingShift = 0;
    /** Label for statistics dumps. */
    std::string label;
};

/** Whole-board configuration. */
struct BoardConfig
{
    std::vector<NodeConfig> nodes;
    /**
     * Node-controller transaction-buffer depth; the current board
     * revision has 512 entries (paper section 3.3).
     */
    std::size_t bufferEntries = 512;
    /**
     * SDRAM directory throughput as a percentage of full bus bandwidth
     * (paper: "roughly 42% of the maximum 6xx bus bandwidth").
     */
    unsigned sdramThroughputPercent = 42;
    /**
     * Health state machine policy (disabled by default: the board
     * retries on overflow and never degrades, exactly like the
     * hardware). See fault::HealthPolicy.
     */
    fault::HealthPolicy health;
    /** Capture committed tenures into an on-board trace buffer. */
    bool traceCapture = false;
    /** Trace-capture capacity in records (board max: 1G records). */
    std::uint64_t traceCaptureRecords = 1u << 20;

    /**
     * Check every node and the board-level budgets, collecting *all*
     * problems instead of stopping at the first: one human-readable
     * message per violation, empty when the configuration is buildable.
     * Front ends (examples, consoles) print the whole list so an
     * operator fixes a configuration in one round trip.
     */
    std::vector<std::string> validationErrors() const;

    /**
     * fatal() with every message from validationErrors(), or return
     * quietly when there are none. The MemoriesBoard constructor runs
     * this once; nothing downstream re-checks.
     */
    void validate() const;

    /**
     * Configuration fingerprint stored in IESCKPT checkpoint headers:
     * an FNV-1a mix over everything that shapes the board's emulated
     * state — every node's geometry, replacement policy, set sampling,
     * target machine, CPU assignment, and protocol fingerprint, plus
     * the buffering/pacing parameters, health policy, and trace
     * capture mode. Labels are cosmetic and excluded. Two configs with
     * the same fingerprint produce interchangeable checkpoints.
     */
    std::uint64_t fingerprint() const;

    /**
     * validationErrors() plus checkpoint-compatibility checks: also
     * reject (with a message naming both fingerprints) when
     * @p restore_fingerprint — from the header of a checkpoint about
     * to be restored — differs from this configuration's fingerprint().
     */
    std::vector<std::string>
    validationErrors(std::uint64_t restore_fingerprint) const;
};

} // namespace memories::ies

#endif // MEMORIES_IES_BOARDCONFIG_HH
