/**
 * @file
 * FleetReport: the fan-out fidelity report must count every tenure a
 * board silently lost to transaction-buffer overflow and flag such
 * boards as lossy — a fleet replay has no host to honour the retry a
 * live board would have posted, so drops are the one serial/fleet
 * divergence and must never pass unnoticed.
 */

#include "ies/analysis.hh"

#include <gtest/gtest.h>

#include <string>

#include "ies/board.hh"
#include "ies/fanout.hh"

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
readAt(Addr addr, Cycle cycle)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.cycle = cycle;
    t.op = bus::BusOp::Read;
    t.cpu = 0;
    return t;
}

/**
 * Publish @p events committed reads all at bus cycle 0: the paced
 * SDRAM drain earns no credits at cycle 0, so a board with an
 * N-entry buffer accepts exactly N and drops the rest.
 */
FleetReport
runLossyFleet(std::size_t events, std::size_t tiny_buffer)
{
    ExperimentFleet fleet;
    BoardConfig lossy = makeUniformBoard(1, 4, smallCache());
    lossy.bufferEntries = tiny_buffer;
    fleet.addExperiment(lossy, 1, "tiny");

    BoardConfig roomy = makeUniformBoard(1, 4, smallCache());
    fleet.addExperiment(roomy, 1, "roomy");

    fleet.start(2);
    for (std::size_t i = 0; i < events; ++i)
        fleet.publish(readAt(Addr{i} * 128, 0));
    fleet.finish();
    return FleetReport::capture(fleet);
}

TEST(FleetReportTest, CountsOverflowDropsPerBoard)
{
    const FleetReport report = runLossyFleet(20, 4);
    EXPECT_EQ(report.published, 20u);
    EXPECT_EQ(report.tapFiltered, 0u);
    EXPECT_EQ(report.tapRetryDropped, 0u);

    ASSERT_EQ(report.boards.size(), 2u);
    EXPECT_EQ(report.boards[0].label, "tiny");
    EXPECT_EQ(report.boards[0].consumed, 20u);
    EXPECT_EQ(report.boards[0].overflowDrops, 16u); // 20 − 4 slots
    EXPECT_EQ(report.boards[1].label, "roomy");
    EXPECT_EQ(report.boards[1].consumed, 20u);
    EXPECT_EQ(report.boards[1].overflowDrops, 0u);
    EXPECT_EQ(report.totalOverflowDrops(), 16u);
}

TEST(FleetReportTest, TextFlagsOnlyLossyBoards)
{
    const FleetReport report = runLossyFleet(20, 4);
    const std::string text = report.toText();
    EXPECT_NE(text.find("tiny: consumed 20 drops 16"),
              std::string::npos);
    EXPECT_NE(text.find("** lossy: this board saw 16 fewer tenures "
                        "than the host bus **"),
              std::string::npos);
    // The roomy board's line must carry no lossy marker.
    const auto roomy_at = text.find("roomy:");
    ASSERT_NE(roomy_at, std::string::npos);
    EXPECT_EQ(text.find("lossy", roomy_at), std::string::npos);
}

TEST(FleetReportTest, CsvHasHeaderAndOneRowPerBoard)
{
    const FleetReport report = runLossyFleet(20, 4);
    const std::string csv = report.toCsv();
    EXPECT_NE(csv.find("board,consumed,overflow_drops,"
                       "backpressure_stalls,capture_dropped,"
                       "lost_inflight,health,published,"
                       "tap_filtered,tap_retry_dropped\n"),
              std::string::npos);
    EXPECT_NE(csv.find("tiny,20,16,"), std::string::npos);
    EXPECT_NE(csv.find("roomy,20,0,"), std::string::npos);
}

TEST(FleetReportTest, LosslessFleetReportsZeroDrops)
{
    // Same traffic, default 512-entry buffers: nothing may be lost.
    const FleetReport report = runLossyFleet(20, 512);
    EXPECT_EQ(report.totalOverflowDrops(), 0u);
    EXPECT_EQ(report.toText().find("lossy"), std::string::npos);
}

} // namespace
} // namespace memories::ies
