/**
 * @file
 * Determinism property: every workload type must generate an
 * identical reference stream for an identical seed, and different
 * streams for different seeds — the case studies compare cache
 * configurations over identical traffic.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>

#include "host/machine.hh"
#include "ies/fanout.hh"
#include "workload/dss.hh"
#include "workload/oltp.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"
#include "workload/web.hh"
#include "workload/workload.hh"

namespace memories::workload
{
namespace
{

using Factory = std::function<std::unique_ptr<Workload>(std::uint64_t)>;

struct NamedFactory
{
    const char *name;
    Factory make;
};

std::vector<NamedFactory>
factories()
{
    return {
        {"uniform",
         [](std::uint64_t seed) {
             return std::make_unique<UniformWorkload>(4, 8 * MiB, 0.3,
                                                      seed);
         }},
        {"zipf",
         [](std::uint64_t seed) {
             return std::make_unique<ZipfWorkload>(4, 1 << 12, 4096,
                                                   0.8, 0.3, seed);
         }},
        {"oltp",
         [](std::uint64_t seed) {
             OltpParams p;
             p.threads = 4;
             p.dbBytes = 64 * MiB;
             p.journaling = true;
             p.journalPeriodRefs = 5000;
             p.journalBurstRefs = 500;
             p.seed = seed;
             return std::make_unique<OltpWorkload>(p);
         }},
        {"dss",
         [](std::uint64_t seed) {
             DssParams p;
             p.threads = 4;
             p.factBytes = 64 * MiB;
             p.dimBytes = 8 * MiB;
             p.seed = seed;
             return std::make_unique<DssWorkload>(p);
         }},
        {"splash",
         [](std::uint64_t seed) {
             auto p = fmmParams(100'000, 4, 1.0 / 8.0);
             p.seed = seed;
             return std::make_unique<SplashWorkload>(p);
         }},
        {"web",
         [](std::uint64_t seed) {
             WebParams p;
             p.threads = 4;
             p.docBytes = 64 * MiB;
             p.seed = seed;
             return std::make_unique<WebWorkload>(p);
         }},
    };
}

class DeterminismTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(DeterminismTest, SameSeedSameStream)
{
    const auto factory = factories()[GetParam()];
    auto a = factory.make(42);
    auto b = factory.make(42);
    for (int i = 0; i < 20000; ++i) {
        const unsigned tid = i % 4;
        const auto ra = a->next(tid);
        const auto rb = b->next(tid);
        ASSERT_EQ(ra.addr, rb.addr)
            << factory.name << " diverged at ref " << i;
        ASSERT_EQ(ra.write, rb.write)
            << factory.name << " write flag diverged at ref " << i;
    }
}

TEST_P(DeterminismTest, DifferentSeedsDiverge)
{
    const auto factory = factories()[GetParam()];
    auto a = factory.make(1);
    auto b = factory.make(2);
    int same = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i) {
        const unsigned tid = i % 4;
        same += a->next(tid).addr == b->next(tid).addr;
    }
    EXPECT_LT(same, n / 2) << factory.name;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DeterminismTest,
                         ::testing::Range<std::size_t>(0, 6));

/**
 * Run one workload through an ExperimentFleet with @p workers threads
 * and render every board counter (fleet-level determinism must hold
 * all the way down to the emulated directories, not just the reference
 * stream).
 */
std::string
fleetFingerprint(std::size_t workers, std::uint64_t seed)
{
    auto wl = factories()[1].make(seed); // zipf: shared hot blocks
    host::HostConfig host_cfg;
    host_cfg.numCpus = 4;
    host_cfg.l2 = cache::CacheConfig{256 * KiB, 4, 128,
                                     cache::ReplacementPolicy::LRU};
    host_cfg.cyclesPerRef = 6; // stay in the paper's utilization band
    host::HostMachine machine(host_cfg, *wl);

    ies::ExperimentFleet fleet;
    for (std::uint64_t mb : {2, 4, 8}) {
        fleet.addExperiment(
            ies::makeUniformBoard(
                2, 2,
                cache::CacheConfig{mb * MiB, 4, 128,
                                   cache::ReplacementPolicy::LRU}),
            seed);
    }
    fleet.attach(machine.bus());
    fleet.start(workers);
    machine.run(60'000);
    fleet.finish();

    std::ostringstream os;
    for (std::size_t b = 0; b < fleet.numExperiments(); ++b) {
        os << "board " << b << "\n";
        for (std::size_t n = 0; n < fleet.board(b).numNodes(); ++n) {
            fleet.board(b).node(n).counters().snapshot(
                [&os](const memories::CounterSample &s) {
                    os << s.name << " " << s.value << "\n";
                });
        }
    }
    return os.str();
}

/**
 * Two fleet runs with the same seed must produce identical counters
 * even with different worker counts — this is what catches any
 * iteration-order dependence hiding in the fan-out ring.
 */
TEST(FleetDeterminismTest, SameSeedSameCountersAcrossWorkerCounts)
{
    const std::string one = fleetFingerprint(1, 42);
    const std::string two = fleetFingerprint(2, 42);
    const std::string three = fleetFingerprint(3, 42);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, three);
}

TEST(FleetDeterminismTest, SameSeedSameCountersAcrossRepeats)
{
    EXPECT_EQ(fleetFingerprint(2, 7), fleetFingerprint(2, 7));
}

TEST(FleetDeterminismTest, DifferentSeedsDiverge)
{
    EXPECT_NE(fleetFingerprint(2, 1), fleetFingerprint(2, 2));
}

} // namespace
} // namespace memories::workload
