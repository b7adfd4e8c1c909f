/**
 * @file
 * End-to-end lifecycle-tracing tests: a recorder attached to the bus
 * and board must capture every stage of a tenure's life, an anomaly
 * (forced transaction-buffer overflow) must trigger the auto-dump hook
 * with the full history leading up to it, and per-board fleet
 * recorders must produce diffable (equivalent) streams for identical
 * configurations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "bus/bus6xx.hh"
#include "ies/board.hh"
#include "ies/fanout.hh"
#include "trace/lifecycle.hh"
#include "trace/tracefile.hh"

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

bus::BusTransaction
txn(Addr addr, bus::BusOp op, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cpu = cpu;
    return t;
}

bool
hasKind(const std::vector<trace::LifecycleEvent> &events,
        trace::EventKind kind)
{
    return std::any_of(events.begin(), events.end(),
                       [kind](const trace::LifecycleEvent &ev) {
                           return ev.kind == kind;
                       });
}

TEST(LifecycleIntegrationTest, BusAndBoardEmitFullTenureLifecycle)
{
    trace::FlightRecorder recorder(1 << 10);
    bus::Bus6xx bus;
    bus.attachFlightRecorder(recorder);
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);
    board.attachFlightRecorder(recorder, 0);

    bus.issue(txn(0x1000, bus::BusOp::Read, 0)); // miss + fill
    bus.tick(1000);
    bus.issue(txn(0x1000, bus::BusOp::Read, 1)); // hit
    board.drainAll();

    const auto events = recorder.snapshot();
    EXPECT_TRUE(hasKind(events, trace::EventKind::BusIssue));
    EXPECT_TRUE(hasKind(events, trace::EventKind::SnoopReply));
    EXPECT_TRUE(hasKind(events, trace::EventKind::Combine));
    EXPECT_TRUE(hasKind(events, trace::EventKind::BoardCommit));
    EXPECT_TRUE(hasKind(events, trace::EventKind::CacheMiss));
    EXPECT_TRUE(hasKind(events, trace::EventKind::CacheHit));
    EXPECT_TRUE(hasKind(events, trace::EventKind::StateTransition));
    EXPECT_TRUE(hasKind(events, trace::EventKind::Retire));

    // Both tenures got distinct 1-based trace ids, and every
    // tenure-bound event refers to one of them.
    for (const auto &ev : events) {
        if (ev.kind == trace::EventKind::BusIssue) {
            EXPECT_TRUE(ev.traceId == 1u || ev.traceId == 2u);
        }
        if (ev.traceId != 0) {
            EXPECT_LE(ev.traceId, 2u);
        }
    }
}

TEST(LifecycleIntegrationTest, DetachedComponentsRecordNothing)
{
    trace::FlightRecorder recorder(1 << 10);
    bus::Bus6xx bus;
    bus.attachFlightRecorder(recorder);
    bus.detachFlightRecorder();
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);

    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    board.drainAll();
    EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(LifecycleIntegrationTest, ForcedOverflowAutoDumpsFullLifecycle)
{
    // A 2-entry transaction buffer with back-to-back issues (no bus
    // cycles for SDRAM pacing to drain) must overflow; the anomaly
    // hook then dumps the ring — the flight-recorder workflow the
    // console's `trace autodump` wires up.
    const std::string dumpPath =
        ::testing::TempDir() + "lifecycle_autodump_test.spans";
    std::remove(dumpPath.c_str());

    trace::FlightRecorder recorder(1 << 10);
    std::uint64_t dumps = 0;
    recorder.onAnomaly([&](const trace::FlightRecorder &rec,
                           const trace::LifecycleEvent &) {
        trace::writeLifecycleDump(dumpPath, rec.snapshot());
        ++dumps;
    });

    bus::Bus6xx bus;
    bus.attachFlightRecorder(recorder);
    BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    cfg.bufferEntries = 2;
    MemoriesBoard board(cfg);
    board.plugInto(bus);
    board.attachFlightRecorder(recorder, 0);

    for (int i = 0; i < 8; ++i)
        bus.issue(txn(0x1000u + 128u * i, bus::BusOp::Read, 0));

    EXPECT_GE(recorder.anomalies(), 1u);
    EXPECT_GE(dumps, 1u);

    const auto dumped = trace::readLifecycleDump(dumpPath);
    EXPECT_TRUE(hasKind(dumped, trace::EventKind::BusIssue));
    EXPECT_TRUE(hasKind(dumped, trace::EventKind::BoardCommit));
    EXPECT_TRUE(hasKind(dumped, trace::EventKind::BufferOverflow));
    EXPECT_TRUE(hasKind(dumped, trace::EventKind::Anomaly));
    std::remove(dumpPath.c_str());
}

TEST(LifecycleIntegrationTest, FleetRecordersProduceEquivalentStreams)
{
    // Two identical fleet boards with one recorder each: the streams
    // must be equivalent under firstDivergence (which ignores the
    // board-id tag), making configuration sweeps diffable.
    trace::FlightRecorder recA(1 << 12), recB(1 << 12);
    ExperimentFleet fleet;
    fleet.addExperiment(makeUniformBoard(2, 4, smallCache()), 99, "a");
    fleet.addExperiment(makeUniformBoard(2, 4, smallCache()), 99, "b");
    fleet.attachFlightRecorder(0, recA);
    fleet.attachFlightRecorder(1, recB);
    fleet.start(2);
    for (int i = 0; i < 200; ++i) {
        auto t = txn(0x1000u + 128u * (i % 64),
                     i % 3 ? bus::BusOp::Read : bus::BusOp::Rwitm,
                     static_cast<CpuId>(i % 8));
        t.cycle = 20u * i;
        t.traceId = static_cast<std::uint32_t>(i + 1);
        fleet.publish(t);
    }
    fleet.finish();

    const auto a = recA.snapshot();
    const auto b = recB.snapshot();
    EXPECT_GT(a.size(), 0u);
    EXPECT_EQ(trace::firstDivergence(a, b), SIZE_MAX)
        << "identical configurations must record identical lifecycles";
}

} // namespace
} // namespace memories::ies
