#include "campaign/plan.hh"

#include <limits>

#include "common/logging.hh"

namespace memories::campaign
{

void
CampaignPlan::save(ckpt::Sink &sink) const
{
    sink.u32(checkpointEvery);
    sink.u32(maxAttempts);
    sink.u32(backoffLimit);
    sink.u32(fleetWorkers);
    sink.u32(streamCpus);
    sink.u32(streamBurstPermille);
    if (units.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("campaign plan of ", units.size(),
              " units does not fit its manifest");
    sink.u32(static_cast<std::uint32_t>(units.size()));
    for (const UnitSpec &u : units) {
        sink.str(u.configName);
        sink.u64(u.configFingerprint);
        sink.u64(u.seed);
        sink.u64(u.txns);
    }
}

CampaignPlan
CampaignPlan::load(ckpt::Source &source)
{
    CampaignPlan plan;
    plan.checkpointEvery = source.u32();
    plan.maxAttempts = source.u32();
    plan.backoffLimit = source.u32();
    plan.fleetWorkers = source.u32();
    plan.streamCpus = source.u32();
    plan.streamBurstPermille = source.u32();
    if (plan.checkpointEvery == 0)
        fatal(source.context(), ": checkpoint cadence of 0");
    if (plan.maxAttempts == 0)
        fatal(source.context(), ": max attempts of 0");
    const std::uint32_t count = source.u32();
    plan.units.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        UnitSpec u;
        u.configName = source.str();
        u.configFingerprint = source.u64();
        u.seed = source.u64();
        u.txns = source.u64();
        if (u.txns == 0)
            fatal(source.context(), ": unit ", i, " has zero txns");
        plan.units.push_back(std::move(u));
    }
    return plan;
}

std::uint64_t
CampaignPlan::fingerprint() const
{
    ckpt::Sink sink;
    save(sink);
    return (std::uint64_t{ckpt::crc32(sink.bytes().data(), sink.size())}
            << 32) |
           sink.size();
}

CampaignPlan
buildPlan(const std::vector<oracle::LatticeConfig> &configs,
          std::uint64_t firstSeed, std::size_t numSeeds,
          std::uint64_t txnsPerUnit, std::uint32_t checkpointEvery)
{
    if (configs.empty())
        fatal("campaign plan needs at least one configuration");
    if (numSeeds == 0)
        fatal("campaign plan needs at least one seed");
    if (txnsPerUnit == 0)
        fatal("campaign plan needs a nonzero per-unit txn count");
    if (checkpointEvery == 0)
        fatal("campaign checkpoint cadence must be nonzero");
    // The manifest counts units in 32 bits; refuse before allocating.
    const std::uint64_t maxUnits = std::numeric_limits<std::uint32_t>::max();
    if (numSeeds > maxUnits / configs.size())
        fatal("campaign plan of ", numSeeds, " seeds x ", configs.size(),
              " configs exceeds the manifest's ", maxUnits, " units");
    CampaignPlan plan;
    plan.checkpointEvery = checkpointEvery;
    for (std::size_t s = 0; s < numSeeds; ++s) {
        for (const oracle::LatticeConfig &cfg : configs) {
            UnitSpec u;
            u.configName = cfg.name;
            u.configFingerprint = cfg.config.fingerprint();
            u.seed = firstSeed + s;
            u.txns = txnsPerUnit;
            plan.units.push_back(std::move(u));
        }
    }
    return plan;
}

} // namespace memories::campaign
