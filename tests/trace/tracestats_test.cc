#include "trace/tracestats.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "trace/tracefile.hh"

namespace memories::trace
{
namespace
{

bus::BusTransaction
txn(Addr addr, bus::BusOp op, CpuId cpu, Cycle cycle)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cpu = cpu;
    t.cycle = cycle;
    return t;
}

TEST(TraceStatsTest, CountsPerOpAndCpu)
{
    TraceStats stats;
    stats.record(txn(0x1000, bus::BusOp::Read, 0, 0));
    stats.record(txn(0x2000, bus::BusOp::Rwitm, 1, 10));
    stats.record(txn(0x3000, bus::BusOp::Read, 0, 20));
    EXPECT_EQ(stats.records(), 3u);
    EXPECT_EQ(stats.opCount(bus::BusOp::Read), 2u);
    EXPECT_EQ(stats.opCount(bus::BusOp::Rwitm), 1u);
    EXPECT_EQ(stats.cpuCount(0), 2u);
    EXPECT_EQ(stats.cpuCount(1), 1u);
}

TEST(TraceStatsTest, FootprintCountsUniqueLines)
{
    TraceStats stats;
    stats.record(txn(0x1000, bus::BusOp::Read, 0, 0));
    stats.record(txn(0x1000 + 64, bus::BusOp::Read, 0, 1)); // same line
    stats.record(txn(0x1000 + 128, bus::BusOp::Read, 0, 2)); // next
    EXPECT_EQ(stats.uniqueLines(), 2u);
    EXPECT_EQ(stats.footprintBytes(), 256u);
}

TEST(TraceStatsTest, UtilizationOverSpan)
{
    TraceStats stats;
    stats.record(txn(0x1000, bus::BusOp::Read, 0, 0));
    stats.record(txn(0x2000, bus::BusOp::Read, 0, 100));
    EXPECT_NEAR(stats.utilization(), 2.0 / 100.0, 1e-9);
}

TEST(TraceStatsTest, ReadFractionIgnoresNonMemory)
{
    TraceStats stats;
    stats.record(txn(0x1000, bus::BusOp::Read, 0, 0));
    stats.record(txn(0x2000, bus::BusOp::WriteBack, 0, 1));
    stats.record(txn(0x3000, bus::BusOp::IoRead, 0, 2));
    EXPECT_DOUBLE_EQ(stats.readFraction(), 0.5);
}

TEST(TraceStatsTest, ReportMentionsKeyNumbers)
{
    TraceStats stats;
    stats.record(txn(0x1000, bus::BusOp::Read, 3, 0));
    const auto report = stats.report();
    EXPECT_NE(report.find("records 1"), std::string::npos);
    EXPECT_NE(report.find("READ=1"), std::string::npos);
    EXPECT_NE(report.find("cpu3=1"), std::string::npos);
}

class TraceToolsTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Keyed on the process: ctest runs each test in its own
        // process, in parallel under -j.
        static int counter = 0;
        const std::string stem = ::testing::TempDir() + "tracestats_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(++counter);
        in_ = stem + "_in.ies";
        out_ = stem + "_out.ies";
        std::vector<bus::BusTransaction> stream;
        for (int i = 0; i < 100; ++i) {
            stream.push_back(txn(0x1000u + 128u * i,
                                 i % 4 == 0 ? bus::BusOp::Rwitm
                                            : bus::BusOp::Read,
                                 static_cast<CpuId>(i % 8), 5u * i));
        }
        writeBusTrace(in_, stream);
    }

    void TearDown() override
    {
        std::remove(in_.c_str());
        std::remove(out_.c_str());
    }

    std::string in_, out_;
};

TEST_F(TraceToolsTest, FromFileConsumesAll)
{
    const auto stats = TraceStats::fromFile(in_);
    EXPECT_EQ(stats.records(), 100u);
    EXPECT_EQ(stats.opCount(bus::BusOp::Rwitm), 25u);
}

TEST_F(TraceToolsTest, SliceCopiesWindow)
{
    const auto stream = readBusTrace(in_).stream;
    const auto sliced = sliceTrace(stream, 10, 20);
    ASSERT_EQ(sliced.size(), 20u);
    EXPECT_EQ(sliced.front().addr, stream[10].addr);
    EXPECT_EQ(sliced.back().cycle, stream[29].cycle);
    writeBusTrace(out_, sliced);
    const auto stats = TraceStats::fromFile(out_);
    EXPECT_EQ(stats.records(), 20u);
    EXPECT_EQ(stats.firstCycle(), stream[10].cycle);
}

TEST_F(TraceToolsTest, SliceClampsAtEnd)
{
    const auto stream = readBusTrace(in_).stream;
    EXPECT_EQ(sliceTrace(stream, 90, 50).size(), 10u);
    EXPECT_TRUE(sliceTrace(stream, 100, 5).empty());
    EXPECT_TRUE(sliceTrace(stream, 1000, 5).empty());
}

TEST_F(TraceToolsTest, FilterKeepsMatching)
{
    const auto kept = filterTrace(
        readBusTrace(in_).stream, [](const bus::BusTransaction &t) {
            return t.op == bus::BusOp::Rwitm;
        });
    EXPECT_EQ(kept.size(), 25u);
    writeBusTrace(out_, kept);
    const auto stats = TraceStats::fromFile(out_);
    EXPECT_EQ(stats.records(), 25u);
    EXPECT_EQ(stats.opCount(bus::BusOp::Read), 0u);
}

} // namespace
} // namespace memories::trace
