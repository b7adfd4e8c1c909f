/**
 * @file
 * Directory checkpoint/restore tests: the workload-positioning
 * capability the hardware board lacked (paper §4.2 vs Embra).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "ies/board.hh"
#include "ies/console.hh"
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

bus::BusTransaction
txn(Addr addr, bus::BusOp op, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cpu = cpu;
    return t;
}

class CheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Keyed on the process, not an address: with ASLR off (as
        // under TSan) concurrent test processes reuse addresses.
        static int counter = 0;
        path_ = ::testing::TempDir() + "board_state_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(++counter) + ".ies";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

TEST_F(CheckpointTest, SaveAndRestoreRoundTripsDirectories)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(2, 4, smallCache()));
    board.plugInto(bus);

    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        bus.issue(txn(rng.nextBounded(1 << 14) * 128,
                      rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                        : bus::BusOp::Read,
                      static_cast<CpuId>(rng.nextBounded(8))));
        bus.tick(5);
    }
    board.drainAll();
    board.saveState(path_);

    const auto occ0 = board.node(0).directoryOccupancy();
    const auto occ1 = board.node(1).directoryOccupancy();
    const auto probe_state = board.node(0).probeState(0x0000);

    // A second board restores into the same contents.
    MemoriesBoard restored(makeUniformBoard(2, 4, smallCache()));
    restored.loadState(path_);
    EXPECT_EQ(restored.node(0).directoryOccupancy(), occ0);
    EXPECT_EQ(restored.node(1).directoryOccupancy(), occ1);
    EXPECT_EQ(restored.node(0).probeState(0x0000), probe_state);

    // Every line of the original is present with the same state.
    for (const auto &[addr, state] : board.node(0).directorySnapshot()) {
        EXPECT_EQ(static_cast<cache::LineStateRaw>(
                      restored.node(0).probeState(addr)),
                  state);
    }
}

TEST_F(CheckpointTest, RestoreKeepsNodesInPlaceAndRewiresRecorder)
{
    MemoriesBoard board(makeUniformBoard(2, 4, smallCache()));
    for (int i = 0; i < 64; ++i)
        board.feedCommitted(txn(i * 128, bus::BusOp::Read, i % 8));
    board.drainAll();
    board.saveState(path_);

    MemoriesBoard restored(makeUniformBoard(2, 4, smallCache()));
    trace::FlightRecorder recorder(1024);
    restored.attachFlightRecorder(recorder);
    const NodeController *node0 = &restored.node(0);
    const NodeController *node1 = &restored.node(1);
    restored.loadState(path_);
    EXPECT_EQ(&restored.node(0), node0);
    EXPECT_EQ(&restored.node(1), node1);
    EXPECT_EQ(restored.node(0).directoryOccupancy(),
              board.node(0).directoryOccupancy());

    // The restored nodes still record into the board's recorder.
    restored.feedCommitted(txn(0, bus::BusOp::Read, 0));
    restored.drainAll();
    std::size_t nodeEvents = 0;
    for (const trace::LifecycleEvent &ev : recorder.snapshot()) {
        if (ev.kind == trace::EventKind::CacheHit ||
            ev.kind == trace::EventKind::CacheMiss)
            ++nodeEvents;
    }
    EXPECT_GT(nodeEvents, 0u);
}

TEST_F(CheckpointTest, RestoreRejectsGeometryMismatch)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.saveState(path_);

    MemoriesBoard wrong_count(makeUniformBoard(2, 4, smallCache()));
    EXPECT_THROW(wrong_count.loadState(path_), FatalError);

    MemoriesBoard wrong_geometry(makeUniformBoard(
        1, 8,
        cache::CacheConfig{4 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    EXPECT_THROW(wrong_geometry.loadState(path_), FatalError);
}

TEST_F(CheckpointTest, RestoreRejectsGarbageFiles)
{
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char junk[32] = "definitely not a state file";
        std::fwrite(junk, 1, sizeof(junk), f);
        std::fclose(f);
    }
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    EXPECT_THROW(board.loadState(path_), FatalError);
    EXPECT_THROW(board.loadState("/nonexistent/state.ies"),
                 FatalError);
}

TEST_F(CheckpointTest, WarmRestoreSkipsColdStart)
{
    // Measure miss ratio over the same traffic window from a cold
    // board vs a warm-restored board: the restored one must hit.
    auto traffic = [](MemoriesBoard &board, bus::Bus6xx &bus) {
        Rng rng(42);
        for (int i = 0; i < 20000; ++i) {
            bus.issue(txn(rng.nextBounded(4096) * 128, bus::BusOp::Read,
                          static_cast<CpuId>(rng.nextBounded(8))));
            bus.tick(5);
        }
        board.drainAll();
    };

    bus::Bus6xx warm_bus;
    MemoriesBoard warm(makeUniformBoard(1, 8, smallCache()));
    warm.plugInto(warm_bus);
    traffic(warm, warm_bus); // warmup pass
    warm.saveState(path_);

    bus::Bus6xx cold_bus;
    MemoriesBoard cold(makeUniformBoard(1, 8, smallCache()));
    cold.plugInto(cold_bus);

    bus::Bus6xx restored_bus;
    MemoriesBoard restored(makeUniformBoard(1, 8, smallCache()));
    restored.loadState(path_);
    // The IESCKPT restore brings the warmup counters back too; clear
    // them so the miss ratio below covers the measured window only.
    restored.clearCounters();
    restored.plugInto(restored_bus);

    traffic(cold, cold_bus);
    traffic(restored, restored_bus);
    EXPECT_LT(restored.node(0).stats().missRatio(),
              cold.node(0).stats().missRatio());
    EXPECT_LT(restored.node(0).stats().missRatio(), 0.02);
}

TEST_F(CheckpointTest, ConsoleCommands)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    EXPECT_NE(console.execute("save-state " + path_).find("error:"),
              std::string::npos); // requires init
    console.execute("init");
    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    console.board()->drainAll();
    EXPECT_NE(console.execute("save-state " + path_).find("saved"),
              std::string::npos);
    console.execute("reset");
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 0u);
    EXPECT_NE(console.execute("load-state " + path_).find("restored"),
              std::string::npos);
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 1u);
}

} // namespace
} // namespace memories::ies
