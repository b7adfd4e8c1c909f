/**
 * @file
 * IESCAMP work plans: how a billion-ref campaign is cut into units.
 *
 * A campaign is the cross product of a configuration lattice and a
 * seed range: one *unit* per (config, seed) pair, each emulating a
 * fixed-length property stream (oracle::StimulusGen) on its own board.
 * Units sharing a seed see the same stream, so the runner groups them
 * into ExperimentFleet waves — one published stream, many boards —
 * exactly the PR 1 fan-out, now made crash-tolerant.
 *
 * The plan is durable state: it is the first record of the campaign
 * manifest (docs/FORMATS.md §8) and its fingerprint is stamped into
 * the manifest header, so `campaign resume` fails closed when the
 * binary's configs or the plan's parameters no longer match what the
 * manifest was created for.
 */

#ifndef MEMORIES_CAMPAIGN_PLAN_HH
#define MEMORIES_CAMPAIGN_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/codec.hh"
#include "oracle/diff.hh"

namespace memories::campaign
{

/** One unit of campaign work: one board config over one seed stream. */
struct UnitSpec
{
    /** Config name resolved against the runner's config registry. */
    std::string configName;
    /** BoardConfig::fingerprint at plan time; resume re-validates. */
    std::uint64_t configFingerprint = 0;
    /** Stimulus seed (also the unit's board seed). */
    std::uint64_t seed = 1;
    /** References (transactions) this unit emulates. */
    std::uint64_t txns = 0;

    bool operator==(const UnitSpec &) const = default;
};

/** The complete, durable description of a campaign. */
struct CampaignPlan
{
    std::vector<UnitSpec> units;

    /** Txns per durable segment: checkpoint + manifest cadence. */
    std::uint32_t checkpointEvery = 4096;
    /** Attempts per unit before it is quarantined for good. */
    std::uint32_t maxAttempts = 4;
    /** Backoff exponent cap (fault::backoffUnits, PR 4 arithmetic). */
    std::uint32_t backoffLimit = 6;
    /** Fleet worker threads per wave. */
    std::uint32_t fleetWorkers = 2;
    /** Requesting CPUs of every generated stream. */
    std::uint32_t streamCpus = 8;
    /** Same-cycle burst probability of the stream, in permille. */
    std::uint32_t streamBurstPermille = 300;

    bool operator==(const CampaignPlan &) const = default;

    /** StateCodec: serialize as the manifest's plan record payload. */
    void save(ckpt::Sink &sink) const;

    /** Decode a plan record payload; fatal() on malformed input. */
    static CampaignPlan load(ckpt::Source &source);

    /**
     * Fingerprint over the serialized plan (every unit, every
     * result-affecting parameter). Stored in the manifest header;
     * a resume against a different plan fails closed.
     */
    std::uint64_t fingerprint() const;
};

/**
 * Build the (configs × seeds) cross product: one unit of
 * @p txnsPerUnit references per pair, seeds
 * [firstSeed, firstSeed + numSeeds). A product above UINT32_MAX units
 * (what the manifest counts) is a FatalError, before any allocation.
 */
CampaignPlan
buildPlan(const std::vector<oracle::LatticeConfig> &configs,
          std::uint64_t firstSeed, std::size_t numSeeds,
          std::uint64_t txnsPerUnit, std::uint32_t checkpointEvery);

} // namespace memories::campaign

#endif // MEMORIES_CAMPAIGN_PLAN_HH
