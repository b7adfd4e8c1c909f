/**
 * @file
 * Fault-plan fuzz: 100 seeded random plans against a board with a
 * small buffer and (on odd seeds) an armed health monitor. Whatever
 * the plan does, the board must not panic, every memory tenure must
 * land in exactly one accounting bucket, and running the identical
 * campaign twice must produce byte-identical reports — the
 * determinism guarantee that makes a fault campaign reproducible from
 * nothing but (plan, seed).
 */

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "ies/analysis.hh"
#include "ies/board.hh"

namespace memories::ies
{
namespace
{

cache::CacheConfig
smallCache()
{
    return cache::CacheConfig{2 * MiB, 4, 128,
                              cache::ReplacementPolicy::LRU};
}

/** Render a random but always-grammatical plan for @p seed. */
std::string
randomPlanText(unsigned seed)
{
    std::mt19937_64 rng(seed * 2654435761u + 1);
    std::ostringstream os;
    const std::size_t specs = 1 + rng() % 6;
    for (std::size_t i = 0; i < specs; ++i) {
        const unsigned kind = rng() % 7;
        const bool scheduled = (rng() % 2) == 0;
        auto when = [&]() -> std::ostream & {
            if (scheduled)
                os << " at " << (1 + rng() % 200);
            else
                os << " prob 0." << (rng() % 20);
            return os;
        };
        switch (kind) {
          case 0: os << "retry"; when(); break;
          case 1: os << "dropreply"; when(); break;
          case 2:
            os << "delayreply";
            when() << " cycles " << (1 + rng() % 400);
            break;
          case 3:
            os << "addrflip";
            when() << " bit " << (rng() % 16);
            break;
          case 4:
            os << "tagflip";
            when() << " node " << (rng() % 4) << " bit " << (rng() % 8);
            break;
          case 5:
            os << "slotloss";
            when() << " slots " << (1 + rng() % 24) << " cycles "
                   << (1 + rng() % 2000);
            break;
          default:
            os << "stall";
            when() << " cycles " << (1 + rng() % 2000);
            break;
        }
        os << "\n";
    }
    return os.str();
}

struct CampaignResult
{
    std::uint64_t fedFiltered = 0;
    std::uint64_t fedMemory = 0;
    std::uint64_t fedRejected = 0; // feedCommitted returned false
    std::string boardCsv;
    std::string dumpStats;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

CampaignResult
runCampaign(unsigned seed)
{
    BoardConfig cfg = makeUniformBoard(1, 4, smallCache());
    cfg.bufferEntries = 16;
    if (seed % 2 == 1) {
        cfg.health.enabled = true;
        cfg.health.degradeWindow = 8;
        cfg.health.recoverWindow = 16;
        cfg.health.backoffLimit = 2;
        cfg.health.quarantineStorms = 4;
    }
    MemoriesBoard board(cfg);

    const fault::FaultPlan plan =
        fault::FaultPlan::parse(randomPlanText(seed));
    fault::FaultInjector inj(plan, seed);
    board.attachFaultInjector(inj);

    CampaignResult r;
    std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
    Cycle cycle = 0;
    for (std::size_t i = 0; i < 400; ++i) {
        cycle += rng() % 25;
        bus::BusTransaction t;
        t.addr = (rng() % 256) * 128;
        t.cycle = cycle;
        t.cpu = static_cast<std::uint8_t>(rng() % 4);
        t.traceId = static_cast<std::uint32_t>(i);
        switch (rng() % 8) {
          case 0: t.op = bus::BusOp::Rwitm; break;
          case 1: t.op = bus::BusOp::WriteBack; break;
          case 2: t.op = bus::BusOp::IoRead; break;
          default: t.op = bus::BusOp::Read; break;
        }
        if (bus::isFilteredOp(t.op))
            ++r.fedFiltered;
        else
            ++r.fedMemory;
        if (!board.feedCommitted(t))
            ++r.fedRejected;
    }
    board.drainAll();

    const auto report = BoardReport::capture(board);
    r.boardCsv = report.toCsv();
    r.dumpStats = board.dumpStats();
    for (const auto &s : board.globalCounters().snapshot())
        r.counters.emplace_back(std::string(s.name), s.value);
    for (const auto &s : inj.counters().snapshot())
        r.counters.emplace_back(std::string(s.name), s.value);
    return r;
}

class FaultFuzzTest : public ::testing::TestWithParam<unsigned>
{};

TEST_P(FaultFuzzTest, NoPanicAndConservedAccounting)
{
    const unsigned seed = GetParam();
    const CampaignResult r = runCampaign(seed);

    auto counter = [&](const std::string &name) -> std::uint64_t {
        for (const auto &[n, v] : r.counters)
            if (n == name)
                return v;
        ADD_FAILURE() << "missing counter " << name;
        return 0;
    };

    // Every fed transaction is either filtered or a memory tenure.
    EXPECT_EQ(counter("global.tenures.filtered"), r.fedFiltered);
    EXPECT_EQ(counter("global.tenures.memory"), r.fedMemory);

    // Every memory tenure lands in exactly one bucket.
    const std::uint64_t accounted =
        counter("global.tenures.committed") +
        counter("global.tenures.fault_dropped") +
        counter("global.tenures.sampled_out") +
        counter("global.tenures.shed") +
        counter("global.tenures.quarantined") +
        counter("global.retries_posted");
    EXPECT_EQ(accounted, r.fedMemory) << "seed " << seed;

    // A fed tenure is rejected iff the overflow watchdog said Retry.
    EXPECT_EQ(counter("global.retries_posted"), r.fedRejected);

    // Lost-in-flight tenures were committed first.
    EXPECT_LE(counter("global.tenures.lost_inflight"),
              counter("global.tenures.committed"));
}

TEST_P(FaultFuzzTest, SameSeedSamePlanByteIdenticalReports)
{
    const unsigned seed = GetParam();
    const CampaignResult a = runCampaign(seed);
    const CampaignResult b = runCampaign(seed);
    EXPECT_EQ(a.boardCsv, b.boardCsv);
    EXPECT_EQ(a.dumpStats, b.dumpStats);
    ASSERT_EQ(a.counters.size(), b.counters.size());
    for (std::size_t i = 0; i < a.counters.size(); ++i) {
        EXPECT_EQ(a.counters[i].first, b.counters[i].first) << i;
        EXPECT_EQ(a.counters[i].second, b.counters[i].second)
            << a.counters[i].first;
    }
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, FaultFuzzTest,
                         ::testing::Range(0u, 100u));

} // namespace
} // namespace memories::ies
