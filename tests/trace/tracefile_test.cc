#include "trace/tracefile.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "ies/board.hh"

namespace memories::trace
{
namespace
{

class TraceFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Keyed on the process, not an address: with ASLR off (as
        // under TSan) concurrent test processes reuse addresses.
        static int counter = 0;
        path_ = ::testing::TempDir() + "trace_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(++counter) + ".ies";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    std::string path_;
};

bus::BusTransaction
txnAt(Addr addr, Cycle cycle, CpuId cpu = 0)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.cycle = cycle;
    txn.cpu = cpu;
    txn.op = bus::BusOp::Read;
    return txn;
}

TEST_F(TraceFileTest, WriteThenReadBack)
{
    {
        TraceWriter writer(path_);
        for (int i = 0; i < 1000; ++i)
            writer.append(txnAt(0x1000u + 128u * i, 3u * i));
        writer.flush();
        EXPECT_EQ(writer.count(), 1000u);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.count(), 1000u);
    bus::BusTransaction txn;
    int n = 0;
    Cycle prev = 0;
    while (reader.next(txn)) {
        EXPECT_EQ(txn.addr, 0x1000u + 128u * n);
        EXPECT_GE(txn.cycle, prev);
        prev = txn.cycle;
        ++n;
    }
    EXPECT_EQ(n, 1000);
}

TEST_F(TraceFileTest, EmptyTraceReadsZeroRecords)
{
    {
        TraceWriter writer(path_);
        writer.flush();
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.count(), 0u);
    BusRecord rec;
    EXPECT_FALSE(reader.next(rec));
}

TEST_F(TraceFileTest, RewindRestartsStream)
{
    {
        TraceWriter writer(path_);
        for (int i = 0; i < 10; ++i)
            writer.append(txnAt(0x2000u + 128u * i, i));
        writer.flush();
    }
    TraceReader reader(path_);
    bus::BusTransaction txn;
    while (reader.next(txn)) {
    }
    reader.rewind();
    int n = 0;
    while (reader.next(txn))
        ++n;
    EXPECT_EQ(n, 10);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(TraceReader("/nonexistent/path/trace.ies"), FatalError);
}

TEST_F(TraceFileTest, BadMagicIsFatal)
{
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char garbage[64] = "not a trace file";
        std::fwrite(garbage, 1, sizeof(garbage), f);
        std::fclose(f);
    }
    EXPECT_THROW(TraceReader reader(path_), FatalError);
}

TEST_F(TraceFileTest, DroppedCountRoundTripsThroughV2Header)
{
    {
        TraceWriter writer(path_);
        writer.append(txnAt(0x1000, 0));
        writer.setDroppedAtCapture(42);
        writer.flush();
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.count(), 1u);
    EXPECT_EQ(reader.droppedAtCapture(), 42u);
}

TEST_F(TraceFileTest, ReadsVersion1FilesWithoutDroppedWord)
{
    // A v1 file is a 3-word header followed by records; the reader
    // must keep accepting archives captured before the dropped-count
    // word existed.
    {
        TraceWriter writer(path_);
        writer.append(txnAt(0x3000, 7));
        writer.flush();
    }
    // Rewrite the file as v1: patch the version word, drop word 4.
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        std::uint64_t header[4];
        ASSERT_EQ(std::fread(header, sizeof(std::uint64_t), 4, f), 4u);
        std::uint64_t record = 0;
        ASSERT_EQ(std::fread(&record, sizeof(record), 1, f), 1u);
        std::fclose(f);

        header[1] = 1;
        f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fwrite(header, sizeof(std::uint64_t), 3, f), 3u);
        ASSERT_EQ(std::fwrite(&record, sizeof(record), 1, f), 1u);
        std::fclose(f);
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.count(), 1u);
    EXPECT_EQ(reader.droppedAtCapture(), 0u);
    bus::BusTransaction txn;
    ASSERT_TRUE(reader.next(txn));
    EXPECT_EQ(txn.addr, 0x3000u);
    EXPECT_EQ(txn.cycle, 7u);
    reader.rewind(); // rewind must honor the shorter v1 header
    ASSERT_TRUE(reader.next(txn));
    EXPECT_EQ(txn.addr, 0x3000u);
}

TEST_F(TraceFileTest, LifecycleEventsRoundTrip)
{
    std::vector<LifecycleEvent> original;
    for (std::uint64_t i = 0; i < 100; ++i) {
        LifecycleEvent ev;
        ev.seq = 1000 + i;
        ev.cycle = 3 * i;
        ev.addr = 0x1000 + 128 * i;
        ev.traceId = static_cast<std::uint32_t>(i + 1);
        ev.kind = static_cast<EventKind>(i % numEventKinds);
        ev.board = static_cast<std::uint8_t>(i % 4);
        ev.node = static_cast<std::uint8_t>(i % 8);
        ev.cpu = static_cast<std::uint8_t>(i % 16);
        ev.op = bus::BusOp::Rwitm;
        ev.arg0 = static_cast<std::uint8_t>(i);
        ev.arg1 = static_cast<std::uint8_t>(255 - i);
        original.push_back(ev);
    }
    writeLifecycleDump(path_, original);
    const auto loaded = readLifecycleDump(path_);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < loaded.size(); ++i)
        EXPECT_TRUE(loaded[i] == original[i]) << "event " << i;

    // A dump is an IESCKPT container: fingerprint 0, one section of a
    // count word and five words per event.
    const auto image = ckpt::CheckpointImage::fromFile(path_);
    EXPECT_EQ(image.configFingerprint(), 0u);
    EXPECT_EQ(image.sectionIds(),
              std::vector<std::uint32_t>{ckpt::secLifecycle});
    EXPECT_EQ(image.sectionLength(ckpt::secLifecycle),
              8 + 40 * original.size());

    writeLifecycleDump(path_, {});
    EXPECT_TRUE(readLifecycleDump(path_).empty());
}

/** Expect readLifecycleDump(@p path) to fail with @p needle. */
void
expectDumpRejected(const std::string &path, const std::string &needle)
{
    try {
        readLifecycleDump(path);
        ADD_FAILURE() << "read a file that is not a whole dump";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
}

TEST_F(TraceFileTest, LifecycleDumpRejectsBusTraceAndBoardCheckpoint)
{
    {
        TraceWriter writer(path_);
        writer.append(txnAt(0x1000, 0));
        writer.flush();
    }
    expectDumpRejected(path_, "not an IESCKPT checkpoint");

    // A board checkpoint is a valid container without the section.
    const ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 1,
        cache::CacheConfig{2 * MiB, 2, 128,
                           cache::ReplacementPolicy::LRU}));
    board.saveState(path_);
    expectDumpRejected(path_, "missing section lifecycle");
}

/** Expect opening the trace at @p path to fail, naming the path. */
void
expectTruncated(const std::string &path)
{
    try {
        TraceReader reader(path);
        ADD_FAILURE() << "a file shorter than its count opened";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("'" + path + "' is truncated"),
                  std::string::npos)
            << what;
    }
}

TEST_F(TraceFileTest, TraceShorterThanItsCountIsFatal)
{
    {
        TraceWriter writer(path_);
        for (Cycle i = 0; i < 100; ++i)
            writer.append(txnAt(0x1000 + 128 * i, 5 * i));
        writer.flush();
    }
    const auto full = std::filesystem::file_size(path_);
    // A longer file than its count stays readable (writers append
    // records before they rewrite the header)...
    std::filesystem::resize_file(path_, full + sizeof(std::uint64_t));
    {
        TraceReader reader(path_);
        bus::BusTransaction txn;
        std::uint64_t read = 0;
        while (reader.next(txn))
            ++read;
        EXPECT_EQ(read, 100u);
    }
    // ...but one with 40 of its 100 records cut off is rejected.
    std::filesystem::resize_file(path_, full - 40 * sizeof(std::uint64_t));
    expectTruncated(path_);
}

/** Write a 50-event dump to @p path; returns its bytes. */
std::vector<std::uint8_t>
writeFiftyEventDump(const std::string &path)
{
    std::vector<LifecycleEvent> events;
    for (std::uint64_t i = 0; i < 50; ++i) {
        LifecycleEvent ev;
        ev.seq = i;
        ev.cycle = 3 * i;
        events.push_back(ev);
    }
    writeLifecycleDump(path, events);
    return ckpt::readFileBytes(path, "dump");
}

TEST_F(TraceFileTest, LifecycleDumpShorterThanItsCountIsFatal)
{
    const auto bytes = writeFiftyEventDump(path_);
    // Cut mid-event: 39 whole events of the declared 50 remain.
    std::filesystem::resize_file(path_, bytes.size() - 430);
    expectDumpRejected(path_, "extends past the end of the file");

    // A count that disagrees with the payload, under valid CRCs.
    ckpt::CheckpointWriter writer;
    ckpt::Sink &sink = writer.section(ckpt::secLifecycle);
    sink.u64(51);
    sink.raw(bytes.data() + bytes.size() - 40 * 50, 40 * 50);
    writer.writeFile(path_, 0);
    expectDumpRejected(path_, "declares 51 events but holds 2000 bytes");
}

TEST_F(TraceFileTest, LifecycleDumpWithAFlippedByteIsFatal)
{
    auto bytes = writeFiftyEventDump(path_);
    bytes[bytes.size() - 7] ^= 0x10; // inside the last event
    ckpt::atomicWriteFile(path_, bytes.data(), bytes.size());
    expectDumpRejected(path_, "lifecycle CRC mismatch");
}

TEST_F(TraceFileTest, SurvivesBufferBoundary)
{
    // Cross the 64K-record I/O chunk boundary.
    const std::uint64_t n = (1 << 16) + 37;
    {
        TraceWriter writer(path_);
        for (std::uint64_t i = 0; i < n; ++i)
            writer.append(txnAt(0x100000u + 128u * (i % 1024), i));
        writer.flush();
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.count(), n);
    bus::BusTransaction txn;
    std::uint64_t count = 0;
    while (reader.next(txn))
        ++count;
    EXPECT_EQ(count, n);
}

} // namespace
} // namespace memories::trace
