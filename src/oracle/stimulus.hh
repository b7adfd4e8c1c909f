/**
 * @file
 * Property-based stimulus for the differential oracle: a seeded
 * generator of bus-transaction streams with tunable sharing, locality
 * and op mix, optional FaultPlan co-generation, and a greedy
 * delta-debugging shrinker that reduces a failing stream to a handful
 * of transactions and emits it as a replayable trace file.
 *
 * Everything here is a pure function of its seed: the same
 * StimulusParams always produce the same stream, so a CI failure is
 * reproducible from nothing but the seed printed in the log.
 */

#ifndef MEMORIES_ORACLE_STIMULUS_HH
#define MEMORIES_ORACLE_STIMULUS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "common/random.hh"
#include "fault/faultplan.hh"

namespace memories::oracle
{

/** Tuning knobs of one generated stream. */
struct StimulusParams
{
    std::uint64_t seed = 1;
    /** Transactions to generate. */
    std::size_t count = 1000;
    /** Requesting CPUs (ids 0..cpus-1). */
    unsigned cpus = 8;
    /** Private-pool footprint per CPU, in 128-byte lines. */
    std::uint64_t footprintLines = std::uint64_t{1} << 15;
    /** Zipf skew of line popularity within each pool (0 = uniform). */
    double zipfTheta = 0.7;
    /** Fraction of references aimed at the shared pool. */
    double shareFraction = 0.3;
    /** Shared-pool size in 128-byte lines. */
    std::uint64_t sharedLines = std::uint64_t{1} << 10;

    /**
     * Op-mix weights (normalized internally; they need not sum to 1).
     * pFiltered spreads over the four non-memory ops the address
     * filter discards, so the filter path is always exercised.
     */
    double pRead = 0.55;
    double pIfetch = 0.05;
    double pRwitm = 0.15;
    double pDclaim = 0.08;
    double pWriteback = 0.08;
    double pWritekill = 0.02;
    double pFlush = 0.02;
    double pClean = 0.01;
    double pKill = 0.01;
    double pFiltered = 0.03;

    /** Largest cycle gap between consecutive tenures. */
    unsigned maxGap = 12;
    /** Probability of a zero-gap (same-cycle burst) tenure. */
    double pBurst = 0.2;
};

/** Seeded generator of bus-transaction streams. */
class StimulusGen
{
  public:
    explicit StimulusGen(StimulusParams params = {});

    /**
     * Generate the stream: 128-byte-aligned addresses, nondecreasing
     * cycles starting at 1, traceIds 1..count, size 128.
     */
    std::vector<bus::BusTransaction> generate() const;

    const StimulusParams &params() const { return params_; }

  private:
    StimulusParams params_;
};

/**
 * Draw one random-but-valid FaultSpec: a trigger ('at' in [1,2000] or a
 * probability k/10000 that round-trips exactly through describe()'s
 * text rendering), plus exactly the fields describe() prints for the
 * drawn kind — so parse(describe(spec)) == spec holds by construction.
 */
fault::FaultSpec randomFaultSpec(Rng &rng);

/** Draw a plan of 1..maxSpecs random specs. */
fault::FaultPlan randomFaultPlan(Rng &rng, std::size_t maxSpecs = 6);

/** Predicate over a stream: true when the stream still fails. */
using FailPredicate =
    std::function<bool(const std::vector<bus::BusTransaction> &)>;

/**
 * Greedy delta-debugging shrink (ddmin): repeatedly remove chunks of
 * the stream, keeping any removal after which @p stillFails still
 * returns true, halving the chunk size until single-transaction
 * removals stop helping. @p stillFails must be true for @p stream
 * itself (fatal() otherwise: shrinking a passing stream is a harness
 * bug). Deterministic — no randomness involved.
 */
std::vector<bus::BusTransaction>
shrinkStream(std::vector<bus::BusTransaction> stream,
             const FailPredicate &stillFails);

/**
 * Rewrite a stream into the subset of itself that survives a trace
 * file round trip: traceIds re-stamped 1..n, sizes 128, cycles rebased
 * to start at 1 with inter-arrival gaps clamped to the BusRecord
 * packing limit of 255. Addresses are already 128-byte aligned by
 * construction. The result replays identically from disk; callers
 * shrinking a divergence must re-check the predicate on the canonical
 * stream because the clamps can (rarely) change behaviour.
 */
std::vector<bus::BusTransaction>
canonicalizeForReplay(const std::vector<bus::BusTransaction> &stream);

/**
 * Read a bus trace (trace::readBusTrace) back as a replayable stream:
 * traceIds are re-stamped 1..n (the packed record does not store
 * them). trace::writeBusTrace writes one.
 */
std::vector<bus::BusTransaction> readTrace(const std::string &path);

} // namespace memories::oracle

#endif // MEMORIES_ORACLE_STIMULUS_HH
