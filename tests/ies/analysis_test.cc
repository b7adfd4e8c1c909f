#include "ies/analysis.hh"

#include <gtest/gtest.h>

#include <algorithm>

namespace memories::ies
{
namespace
{

cache::CacheConfig
cacheOf(std::uint64_t mb)
{
    return cache::CacheConfig{mb * MiB, 4, 128,
                              cache::ReplacementPolicy::LRU};
}

bus::BusTransaction
readTxn(Addr addr, CpuId cpu = 0)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = bus::BusOp::Read;
    t.cpu = cpu;
    return t;
}

TEST(AnalysisTest, MissRatioCurveSortsBySize)
{
    bus::Bus6xx bus;
    MemoriesBoard board(
        makeMultiConfigBoard({cacheOf(64), cacheOf(2), cacheOf(16)}, 8));
    board.plugInto(bus);
    bus.issue(readTxn(0x1000));
    board.drainAll();

    const auto curve = missRatioCurve(board);
    ASSERT_EQ(curve.size(), 3u);
    EXPECT_EQ(curve[0].sizeBytes, 2 * MiB);
    EXPECT_EQ(curve[1].sizeBytes, 16 * MiB);
    EXPECT_EQ(curve[2].sizeBytes, 64 * MiB);
    for (const auto &p : curve) {
        EXPECT_EQ(p.refs, 1u);
        EXPECT_EQ(p.misses, 1u);
        EXPECT_DOUBLE_EQ(p.missRatio, 1.0);
    }
}

TEST(AnalysisTest, BoardReportCaptures)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, cacheOf(2)));
    board.plugInto(bus);
    bus.issue(readTxn(0x1000));
    bus.tick(1000);
    bus.issue(readTxn(0x1000));
    board.drainAll();

    const auto report = BoardReport::capture(board);
    EXPECT_EQ(report.memoryTenures, 2u);
    EXPECT_EQ(report.committed, 2u);
    EXPECT_EQ(report.retriesPosted, 0u);
    ASSERT_EQ(report.nodes.size(), 1u);
    EXPECT_EQ(report.nodes[0].localHits, 1u);
}

TEST(AnalysisTest, CsvHasHeaderAndRows)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(2, 4, cacheOf(2)));
    board.plugInto(bus);
    bus.issue(readTxn(0x1000));
    board.drainAll();

    const auto csv = BoardReport::capture(board).toCsv();
    EXPECT_NE(csv.find("node,refs,hits,misses"), std::string::npos);
    // Header + 2 node rows = 3 lines.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

} // namespace
} // namespace memories::ies
