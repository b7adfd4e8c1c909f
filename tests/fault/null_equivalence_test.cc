/**
 * @file
 * Null-injection equivalence: a board carrying a FaultInjector with an
 * empty plan must be bit-exact with a board carrying no injector at
 * all — identical counter banks, identical reports, identical Chrome
 * traces. This is the guarantee that makes fault campaigns trustable:
 * the instrumentation itself perturbs nothing.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "ies/analysis.hh"
#include "ies/board.hh"
#include "ies/fanout.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

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

/**
 * A deterministic mixed-op tenure stream: reads, RWITMs and
 * write-backs across a few CPUs and a strided, re-referencing address
 * pattern, with some filtered I/O traffic sprinkled in.
 */
std::vector<bus::BusTransaction>
workload(std::size_t events)
{
    std::vector<bus::BusTransaction> txns;
    txns.reserve(events);
    for (std::size_t i = 0; i < events; ++i) {
        bus::BusTransaction t;
        t.addr = ((i * 7) % 96) * 128;
        t.cycle = i * 10;
        t.cpu = static_cast<std::uint8_t>(i % 4);
        t.traceId = static_cast<std::uint32_t>(i);
        switch (i % 5) {
          case 0: case 1: t.op = bus::BusOp::Read; break;
          case 2: t.op = bus::BusOp::Rwitm; break;
          case 3: t.op = bus::BusOp::WriteBack; break;
          default: t.op = bus::BusOp::IoRead; break;
        }
        txns.push_back(t);
    }
    return txns;
}

struct RunResult
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::string boardCsv;
    std::string chromeJson;
};

RunResult
runBoard(bool with_null_injector)
{
    BoardConfig cfg = makeUniformBoard(1, 4, smallCache());
    MemoriesBoard board(cfg);
    trace::FlightRecorder recorder(4096);
    board.attachFlightRecorder(recorder);

    fault::FaultInjector inj(fault::FaultPlan{}, 12345);
    if (with_null_injector)
        board.attachFaultInjector(inj);

    for (const auto &t : workload(500))
        board.feedCommitted(t);
    board.drainAll();

    RunResult r;
    for (const auto &s : board.globalCounters().snapshot())
        r.counters.emplace_back(std::string(s.name), s.value);
    for (const auto &s : board.node(0).counters().snapshot())
        r.counters.emplace_back(std::string(s.name), s.value);
    const auto report = BoardReport::capture(board);
    r.boardCsv = report.toCsv();
    r.chromeJson = trace::chromeTraceToString(recorder.snapshot(),
                                              &recorder);
    return r;
}

TEST(NullEquivalenceTest, EmptyPlanBoardIsBitExactWithBareBoard)
{
    const RunResult bare = runBoard(false);
    const RunResult nulled = runBoard(true);

    ASSERT_EQ(bare.counters.size(), nulled.counters.size());
    for (std::size_t i = 0; i < bare.counters.size(); ++i) {
        EXPECT_EQ(bare.counters[i].first, nulled.counters[i].first) << i;
        EXPECT_EQ(bare.counters[i].second, nulled.counters[i].second)
            << bare.counters[i].first;
    }
    EXPECT_EQ(bare.boardCsv, nulled.boardCsv);
    EXPECT_EQ(bare.chromeJson, nulled.chromeJson);
}

TEST(NullEquivalenceTest, FleetWithNullInjectorsMatchesBareFleet)
{
    std::vector<fault::FaultInjector> injectors;
    injectors.emplace_back(fault::FaultPlan{}, 1);
    injectors.emplace_back(fault::FaultPlan{}, 2);

    auto run = [&](bool with_injectors) {
        ExperimentFleet fleet;
        fleet.addExperiment(makeUniformBoard(1, 4, smallCache()), 1,
                            "a");
        BoardConfig big = makeUniformBoard(1, 4, smallCache());
        big.bufferEntries = 64;
        fleet.addExperiment(big, 2, "b");
        if (with_injectors) {
            fleet.attachFaultInjector(0, injectors[0]);
            fleet.attachFaultInjector(1, injectors[1]);
        }
        fleet.start(2);
        for (const auto &t : workload(500))
            fleet.publish(t);
        fleet.finish();
        return FleetReport::capture(fleet).toCsv();
    };

    EXPECT_EQ(run(false), run(true));
}

TEST(NullEquivalenceTest, HealthCountersExistEvenWithoutFaults)
{
    // Null equivalence requires the fault/health counters to be
    // registered unconditionally: the counter bank layout must not
    // depend on whether an injector ever showed up.
    MemoriesBoard board(makeUniformBoard(1, 4, smallCache()));
    const auto &g = board.globalCounters();
    for (const char *name :
         {"global.tenures.lost_inflight", "global.tenures.fault_dropped",
          "global.tenures.sampled_out", "global.tenures.shed",
          "global.tenures.quarantined", "global.health.transitions"}) {
        EXPECT_TRUE(g.has(name)) << name;
        EXPECT_EQ(g.valueByName(name), 0u) << name;
    }
    const auto report = BoardReport::capture(board);
    EXPECT_EQ(report.healthState, "healthy");
    EXPECT_EQ(report.lostInflight, 0u);
}

} // namespace
} // namespace memories::ies
