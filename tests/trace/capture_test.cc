#include "trace/capture.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>

#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace memories::trace
{
namespace
{

bus::BusTransaction
txnAt(Addr addr, Cycle cycle)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.cycle = cycle;
    txn.op = bus::BusOp::Read;
    return txn;
}

TEST(CaptureBufferTest, RejectsZeroCapacity)
{
    EXPECT_THROW(CaptureBuffer(0), FatalError);
}

TEST(CaptureBufferTest, RecordsUpToCapacity)
{
    CaptureBuffer buf(4);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(buf.record(txnAt(0x1000u + 128u * i, i)));
    EXPECT_TRUE(buf.full());
    EXPECT_EQ(buf.size(), 4u);
}

TEST(CaptureBufferTest, DropsWhenFullWithoutStalling)
{
    // Capture never stalls the host: overflow drops, never blocks.
    CaptureBuffer buf(2);
    buf.record(txnAt(0x1000, 0));
    buf.record(txnAt(0x1080, 1));
    EXPECT_FALSE(buf.record(txnAt(0x1100, 2)));
    EXPECT_EQ(buf.dropped(), 1u);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(CaptureBufferTest, ResetClearsEverything)
{
    CaptureBuffer buf(2);
    buf.record(txnAt(0x1000, 0));
    buf.record(txnAt(0x1080, 1));
    buf.record(txnAt(0x1100, 2));
    buf.reset();
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.dropped(), 0u);
    EXPECT_FALSE(buf.full());
}

TEST(CaptureBufferTest, DumpToFileRoundTrips)
{
    const std::string path = ::testing::TempDir() + "capture_dump_" +
                             std::to_string(::getpid()) + ".ies";
    CaptureBuffer buf(40);
    // Gaps past the 255-cycle delta limit saturate in the packed word.
    for (int i = 0; i < 50; ++i)
        buf.record(txnAt(0x4000u + 128u * i, 300u * i));
    buf.dumpToFile(path);

    const BusTrace trace = readBusTrace(path);
    EXPECT_EQ(trace.droppedAtCapture, 10u);
    ASSERT_EQ(trace.stream.size(), 40u);
    Cycle prev = 0;
    for (std::size_t i = 0; i < trace.stream.size(); ++i) {
        EXPECT_EQ(trace.stream[i].addr, 0x4000u + 128u * i);
        // The file holds the captured words themselves.
        EXPECT_EQ(BusRecord::pack(trace.stream[i], prev).raw,
                  buf.at(i).raw);
        prev = trace.stream[i].cycle;
    }
    std::remove(path.c_str());
}

TEST(CaptureBufferTest, AtReturnsPackedRecords)
{
    CaptureBuffer buf(8);
    buf.record(txnAt(0x9000, 5));
    EXPECT_EQ(buf.at(0).addr(), 0x9000u);
}

TEST(CaptureBufferTest, BoardScaleCapacityIsAccepted)
{
    // The board can capture a billion 8-byte references; construction
    // must not preallocate that much memory.
    CaptureBuffer buf(1'000'000'000ull);
    EXPECT_EQ(buf.capacity(), 1'000'000'000ull);
    EXPECT_TRUE(buf.record(txnAt(0x1000, 0)));
}

} // namespace
} // namespace memories::trace
