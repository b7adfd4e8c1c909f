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
    std::vector<bus::BusTransaction> written;
    for (int i = 0; i < 1000; ++i)
        written.push_back(txnAt(0x1000u + 128u * i, 3u * i, i % 16));
    writeBusTrace(path_, written);

    const BusTrace trace = readBusTrace(path_);
    EXPECT_EQ(trace.droppedAtCapture, 0u);
    ASSERT_EQ(trace.stream.size(), written.size());
    for (std::size_t i = 0; i < written.size(); ++i) {
        EXPECT_EQ(trace.stream[i].addr, written[i].addr) << i;
        EXPECT_EQ(trace.stream[i].cycle, written[i].cycle) << i;
        EXPECT_EQ(trace.stream[i].cpu, written[i].cpu) << i;
        EXPECT_EQ(trace.stream[i].op, written[i].op) << i;
        EXPECT_EQ(trace.stream[i].traceId, 0u) << i;
    }

    // A trace is an IESCKPT container: fingerprint 0, one section of
    // the dropped and record counts and one packed word per record.
    const auto image = ckpt::CheckpointImage::fromFile(path_);
    EXPECT_EQ(image.configFingerprint(), 0u);
    EXPECT_EQ(image.sectionIds(),
              std::vector<std::uint32_t>{ckpt::secBusTrace});
    EXPECT_EQ(image.sectionLength(ckpt::secBusTrace),
              16 + 8 * written.size());
}

TEST_F(TraceFileTest, EmptyTraceReadsZeroRecords)
{
    writeBusTrace(path_, {});
    const BusTrace trace = readBusTrace(path_);
    EXPECT_TRUE(trace.stream.empty());
    EXPECT_EQ(trace.droppedAtCapture, 0u);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    EXPECT_THROW(readBusTrace("/nonexistent/path/trace.ies"), FatalError);
}

/** Expect readBusTrace(@p path) to fail with @p needle. */
void
expectTraceRejected(const std::string &path, const std::string &needle)
{
    try {
        readBusTrace(path);
        ADD_FAILURE() << "read a file that is not a whole bus trace";
    } catch (const FatalError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
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
    expectTraceRejected(path_, "not an IESCKPT checkpoint");
}

TEST_F(TraceFileTest, DroppedCountRoundTrips)
{
    writeBusTrace(path_, {txnAt(0x1000, 0)}, 42);
    const BusTrace trace = readBusTrace(path_);
    EXPECT_EQ(trace.stream.size(), 1u);
    EXPECT_EQ(trace.droppedAtCapture, 42u);
}

/** Write a CRC-valid bus trace of @p records under a given count. */
void
writeTraceSection(const std::string &path, std::uint64_t count,
                  const std::vector<std::uint64_t> &records)
{
    ckpt::CheckpointWriter writer;
    ckpt::Sink &sink = writer.section(ckpt::secBusTrace);
    sink.u64(0);
    sink.u64(count);
    for (const std::uint64_t record : records)
        sink.u64(record);
    writer.writeFile(path, 0);
}

TEST_F(TraceFileTest, TraceShorterThanItsCountIsFatal)
{
    std::vector<bus::BusTransaction> written;
    for (Cycle i = 0; i < 100; ++i)
        written.push_back(txnAt(0x1000 + 128 * i, 5 * i));
    writeBusTrace(path_, written);
    const auto full = std::filesystem::file_size(path_);
    // Cut off 40 of the 100 records: the container no longer tiles.
    std::filesystem::resize_file(path_, full - 40 * sizeof(std::uint64_t));
    expectTraceRejected(path_, "extends past the end of the file");

    // A count that disagrees with the payload, under valid CRCs, fails
    // whichever way it is off.
    std::vector<std::uint64_t> records;
    Cycle prev = 0;
    for (const bus::BusTransaction &txn : written) {
        records.push_back(BusRecord::pack(txn, prev).raw);
        prev = txn.cycle;
    }
    writeTraceSection(path_, 101, records);
    expectTraceRejected(path_, "declares 101 records but holds 800 bytes");
    writeTraceSection(path_, 99, records);
    expectTraceRejected(path_, "declares 99 records but holds 800 bytes");
    writeTraceSection(path_, 100, records);
    EXPECT_EQ(readBusTrace(path_).stream.size(), 100u);
}

TEST_F(TraceFileTest, BusTraceWithAFlippedByteIsFatal)
{
    std::vector<bus::BusTransaction> written;
    for (Cycle i = 0; i < 50; ++i)
        written.push_back(txnAt(0x500 + 128 * i, 2 * i));
    writeBusTrace(path_, written);
    auto bytes = ckpt::readFileBytes(path_, "trace");
    // Record 10's address word: the record words end the file.
    bytes[bytes.size() - 8 * 40] ^= 0x01;
    ckpt::atomicWriteFile(path_, bytes.data(), bytes.size());
    expectTraceRejected(path_, "section bus_trace CRC mismatch");
}

TEST_F(TraceFileTest, BusTraceWithAnUnknownOpIsFatal)
{
    // The packed op field has four bits but only numBusOps commands
    // exist: op 15 must not index past per-op tables downstream.
    const std::uint64_t read = BusRecord::pack(txnAt(0x1000, 1), 0).raw;
    const std::uint64_t op15 = read | (std::uint64_t{15} << 48);
    writeTraceSection(path_, 2, {read, op15});
    expectTraceRejected(path_, "record 1 has unknown bus command 15");
}

TEST_F(TraceFileTest, BusTraceRejectsLifecycleDumpAndBoardCheckpoint)
{
    writeLifecycleDump(path_, {});
    expectTraceRejected(path_, "missing section bus_trace");

    const ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 1,
        cache::CacheConfig{2 * MiB, 2, 128,
                           cache::ReplacementPolicy::LRU}));
    board.saveState(path_);
    expectTraceRejected(path_, "missing section bus_trace");
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
    // A bus trace is a valid container without the section.
    writeBusTrace(path_, {txnAt(0x1000, 0)});
    expectDumpRejected(path_, "missing section lifecycle");

    // A board checkpoint is a valid container without the section.
    const ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 1,
        cache::CacheConfig{2 * MiB, 2, 128,
                           cache::ReplacementPolicy::LRU}));
    board.saveState(path_);
    expectDumpRejected(path_, "missing section lifecycle");
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

} // namespace
} // namespace memories::trace
