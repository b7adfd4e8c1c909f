/**
 * @file
 * IESCKPT container structure and fail-closed restore: a malformed
 * checkpoint — truncated, wrong magic, wrong version, corrupted
 * payload, mismatched counter layout — must be rejected with a
 * diagnostic and must leave the target board completely untouched
 * (docs/FORMATS.md section 7).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/file.hh"
#include "common/counters.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "fault/injector.hh"
#include "ies/board.hh"

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
txn(Addr addr, bus::BusOp op, CpuId cpu, Cycle cycle = 0)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cpu = cpu;
    t.cycle = cycle;
    return t;
}

/** Feed a deterministic warm-up stream so every section has state. */
void
warmUp(MemoriesBoard &board, std::uint64_t seed = 11, int tenures = 4000)
{
    Rng rng(seed);
    Cycle cycle = 0;
    for (int i = 0; i < tenures; ++i) {
        cycle += 3;
        board.feedCommitted(txn(rng.nextBounded(1 << 13) * 128,
                                rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                                  : bus::BusOp::Read,
                                static_cast<CpuId>(rng.nextBounded(8)),
                                cycle));
    }
}

/** Counters, directories and buffer counts, for round-trip checks. */
struct BoardFingerprint
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;

    bool operator==(const BoardFingerprint &) const = default;
};

BoardFingerprint
fingerprintOf(const MemoriesBoard &board)
{
    BoardFingerprint fp;
    const auto collect = [&fp](const CounterSample &s) {
        fp.counters.emplace_back(s.name, s.value);
    };
    board.globalCounters().snapshot(collect);
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot(collect);
        fp.dirs.push_back(board.node(i).directorySnapshot());
    }
    fp.bufferRetired = board.bufferRetired();
    fp.bufferSize = board.bufferSize();
    fp.bufferHighWater = board.bufferHighWater();
    return fp;
}

/**
 * Everything @p board saves, rendered to container bytes: every
 * section, the attached injector's (RNG stream, opportunity counts,
 * injection counters) included.
 */
std::vector<std::uint8_t>
stateBytes(const MemoriesBoard &board)
{
    ckpt::CheckpointWriter writer;
    board.saveState(writer);
    return writer.bytes(board.config().fingerprint());
}

/** A warmed board's checkpoint rendered to container bytes. */
std::vector<std::uint8_t>
checkpointBytes(const BoardConfig &cfg)
{
    MemoriesBoard source(cfg);
    warmUp(source);
    return stateBytes(source);
}

/**
 * Expect that restoring @p bytes into @p board throws and leaves every
 * byte the board (and its injector) saves exactly as it was.
 * @return the diagnostic.
 */
std::string
expectFailsClosed(MemoriesBoard &board,
                  const std::vector<std::uint8_t> &bytes,
                  const std::string &what)
{
    const std::vector<std::uint8_t> before = stateBytes(board);
    std::string error;
    try {
        board.loadState(ckpt::CheckpointImage::fromBytes(bytes, what));
        ADD_FAILURE() << what << ": restore did not throw";
    } catch (const FatalError &e) {
        error = e.what();
    }
    EXPECT_EQ(stateBytes(board), before)
        << what << ": rejected restore mutated the board";
    return error;
}

/** expectFailsClosed on a fresh board warmed apart from the checkpoint. */
void
expectFailsClosed(const BoardConfig &cfg,
                  const std::vector<std::uint8_t> &bytes,
                  const std::string &what)
{
    MemoriesBoard board(cfg);
    warmUp(board, /*seed=*/99); // distinct state from the checkpoint
    expectFailsClosed(board, bytes, what);
}

TEST(IesckptFormatTest, RoundTripThroughBytesIsExact)
{
    const BoardConfig cfg = makeUniformBoard(2, 4, smallCache());
    MemoriesBoard source(cfg);
    warmUp(source);
    ckpt::CheckpointWriter writer;
    source.saveState(writer);
    const auto bytes = writer.bytes(cfg.fingerprint());

    const auto image =
        ckpt::CheckpointImage::fromBytes(bytes, "round-trip");
    EXPECT_EQ(image.configFingerprint(), cfg.fingerprint());
    EXPECT_TRUE(image.has(ckpt::secBoard));
    EXPECT_TRUE(image.has(ckpt::secBuffer));
    EXPECT_TRUE(image.has(ckpt::secHealth));
    EXPECT_FALSE(image.has(ckpt::secInjector));
    EXPECT_TRUE(image.has(ckpt::secNodeBase + 0));
    EXPECT_TRUE(image.has(ckpt::secNodeBase + 1));
    EXPECT_NE(image.describe().find("IESCKPT"), std::string::npos);

    MemoriesBoard restored(cfg);
    restored.loadState(image);
    EXPECT_EQ(fingerprintOf(restored), fingerprintOf(source));
}

TEST(IesckptFormatTest, TruncationAnywhereFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    const auto bytes = checkpointBytes(cfg);
    ASSERT_GT(bytes.size(), 64u);

    // Mid-header, mid-section-table, mid-payload, and one byte short.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{7}, std::size_t{20},
          std::size_t{40}, bytes.size() / 2, bytes.size() - 1}) {
        std::vector<std::uint8_t> cut(bytes.begin(),
                                      bytes.begin() + keep);
        expectFailsClosed(cfg, cut,
                          "truncated at " + std::to_string(keep));
    }
}

TEST(IesckptFormatTest, BadMagicFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    auto bytes = checkpointBytes(cfg);
    bytes[0] ^= 0xff;
    expectFailsClosed(cfg, bytes, "bad magic");
}

TEST(IesckptFormatTest, WrongVersionFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    auto bytes = checkpointBytes(cfg);
    // Bump the version field (offset 8) and re-seal the header CRC
    // (offset 24, over the 24 bytes above) so the version check itself
    // fires rather than the CRC.
    bytes[8] = static_cast<std::uint8_t>(ckpt::formatVersion + 1);
    const std::uint32_t crc = ckpt::crc32(bytes.data(), 24);
    for (unsigned i = 0; i < 4; ++i)
        bytes[24 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    expectFailsClosed(cfg, bytes, "wrong version");
}

TEST(IesckptFormatTest, BytesNoSectionCoversFailClosed)
{
    // The payloads must run back to back, in table order, from the end
    // of the table CRC to the end of the file. Junk after the last
    // section, or a gap before the first, is rejected even though
    // every CRC still holds.
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    const auto good = checkpointBytes(cfg);
    for (const std::size_t junk : {1, 7, 4096}) {
        auto bad = good;
        bad.insert(bad.end(), junk, 0x5a);
        MemoriesBoard board(cfg);
        warmUp(board, /*seed=*/99);
        const std::string error = expectFailsClosed(
            board, bad, std::to_string(junk) + " junk bytes");
        EXPECT_NE(error.find(std::to_string(junk) +
                             " bytes after the last section"),
                  std::string::npos)
            << error;
    }

    // One byte between the table CRC and the first payload, with every
    // recorded offset moved past it and the table CRC re-sealed.
    const std::size_t sections =
        ckpt::CheckpointImage::fromBytes(good, "good").sectionIds().size();
    const std::size_t table = 28;
    const std::size_t tableLen = 24 * sections;
    auto gap = good;
    gap.insert(gap.begin() + table + tableLen + 4, 0x00);
    for (std::size_t i = 0; i < sections; ++i) {
        std::uint8_t *offset = gap.data() + table + 24 * i + 8;
        std::uint64_t value = 0;
        for (unsigned b = 0; b < 8; ++b)
            value |= std::uint64_t{offset[b]} << (8 * b);
        ++value;
        for (unsigned b = 0; b < 8; ++b)
            offset[b] = static_cast<std::uint8_t>(value >> (8 * b));
    }
    const std::uint32_t crc = ckpt::crc32(gap.data() + table, tableLen);
    for (unsigned b = 0; b < 4; ++b)
        gap[table + tableLen + b] = static_cast<std::uint8_t>(crc >> (8 * b));
    MemoriesBoard board(cfg);
    warmUp(board, /*seed=*/99);
    const std::string error =
        expectFailsClosed(board, gap, "gap before the first section");
    EXPECT_NE(error.find("where the previous one ends"), std::string::npos)
        << error;
}

TEST(IesckptFormatTest, PayloadCrcFlipFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    auto bytes = checkpointBytes(cfg);
    // Flip one bit deep in the payload region: the section CRC must
    // catch it before any component decodes a byte.
    bytes[bytes.size() - bytes.size() / 4] ^= 0x01;
    expectFailsClosed(cfg, bytes, "payload CRC flip");
}

TEST(IesckptFormatTest, CounterCountMismatchFailsClosed)
{
    CounterBank small;
    small.add("a");
    small.add("b");
    CounterBank big;
    big.add("a");
    big.add("b");
    big.bump(big.add("c"), 7);

    ckpt::Sink sink;
    small.saveState(sink);
    const auto bytes = sink.bytes();
    ckpt::Source source(bytes.data(), bytes.size(), "counter test");
    EXPECT_THROW(big.loadState(source), FatalError);
    // The count is checked before any value loads: the bank kept its
    // values.
    EXPECT_EQ(big.valueByName("c"), 7u);
}

TEST(IesckptFormatTest, FingerprintMismatchFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    const auto bytes = checkpointBytes(cfg);

    // Same node count and geometry word sizes, different protocol:
    // only the fingerprint gate can tell these apart.
    const BoardConfig other =
        makeUniformBoard(1, 8, smallCache(), "MOESI");
    ASSERT_NE(other.fingerprint(), cfg.fingerprint());
    const auto errors = other.validationErrors(cfg.fingerprint());
    ASSERT_FALSE(errors.empty());
    EXPECT_NE(errors.front().find("different board configuration"),
              std::string::npos);

    expectFailsClosed(other, bytes, "fingerprint mismatch");
}

TEST(IesckptFormatTest, InjectorPresenceMustMatch)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    const auto plan = fault::FaultPlan::parse("dropreply prob 0.02\n");

    // Saved with an injector, restored without one: rejected.
    std::vector<std::uint8_t> with_injector;
    {
        MemoriesBoard source(cfg);
        fault::FaultInjector inj(plan, 5);
        source.attachFaultInjector(inj);
        warmUp(source);
        ckpt::CheckpointWriter writer;
        source.saveState(writer);
        with_injector = writer.bytes(cfg.fingerprint());
    }
    expectFailsClosed(cfg, with_injector, "missing injector");

    // Saved without an injector, restored with one attached: rejected.
    const auto without_injector = checkpointBytes(cfg);
    {
        MemoriesBoard board(cfg);
        fault::FaultInjector inj(plan, 5);
        board.attachFaultInjector(inj);
        warmUp(board, 99);
        expectFailsClosed(board, without_injector, "unexpected injector");
    }

    // And the matching pair round-trips, including the injector RNG.
    {
        MemoriesBoard restored(cfg);
        fault::FaultInjector inj(plan, 5);
        restored.attachFaultInjector(inj);
        restored.loadState(ckpt::CheckpointImage::fromBytes(
            with_injector, "matching injector"));
    }
}

TEST(IesckptFormatTest, InjectorSeedMismatchFailsClosed)
{
    const BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    const auto plan = fault::FaultPlan::parse("dropreply prob 0.02\n");
    std::vector<std::uint8_t> bytes;
    {
        MemoriesBoard source(cfg);
        fault::FaultInjector inj(plan, 5);
        source.attachFaultInjector(inj);
        warmUp(source);
        ckpt::CheckpointWriter writer;
        source.saveState(writer);
        bytes = writer.bytes(cfg.fingerprint());
    }
    MemoriesBoard board(cfg);
    fault::FaultInjector wrong_seed(plan, 6);
    board.attachFaultInjector(wrong_seed);
    warmUp(board, 99);
    expectFailsClosed(board, bytes, "wrong injector seed");
}

TEST(IesckptFormatTest, BadLastNodeSectionFailsClosed)
{
    // Every CRC holds and only the last section fails validation, so
    // every other section has loaded into its staged object by then.
    const BoardConfig cfg = makeUniformBoard(2, 4, smallCache());
    const auto plan = fault::FaultPlan::parse("dropreply prob 0.02\n");
    std::vector<std::uint8_t> good;
    {
        MemoriesBoard source(cfg);
        fault::FaultInjector inj(plan, 5);
        source.attachFaultInjector(inj);
        warmUp(source);
        good = stateBytes(source);
    }

    // Re-seal the sections with one directory word of the last node
    // patched: set 0, way 0 now holds valid line 1, which maps to set 1.
    const auto image = ckpt::CheckpointImage::fromBytes(good, "good");
    const std::uint32_t last = image.sectionIds().back();
    ASSERT_EQ(last, ckpt::secNodeBase + 1);
    ckpt::Source node = image.open(last);
    node.u64(); // geometry signature
    const std::uint64_t counters = node.u64();
    for (std::uint64_t i = 0; i < counters; ++i)
        node.u64();
    ASSERT_EQ(node.u64(), 0u); // no pending parity scrubs
    node.u64();                // frame word count
    const std::size_t frame0 = image.sectionLength(last) - node.remaining();
    ckpt::CheckpointWriter writer;
    for (const std::uint32_t id : image.sectionIds()) {
        std::vector<std::uint8_t> payload(image.sectionLength(id));
        image.open(id).raw(payload.data(), payload.size());
        if (id == last) {
            const std::uint64_t word = (std::uint64_t{1} << 8) | 1;
            for (unsigned b = 0; b < 8; ++b) {
                payload[frame0 + b] =
                    static_cast<std::uint8_t>(word >> (8 * b));
            }
        }
        writer.section(id).raw(payload.data(), payload.size());
    }
    const auto bad = writer.bytes(cfg.fingerprint());

    MemoriesBoard board(cfg);
    fault::FaultInjector inj(plan, 5);
    board.attachFaultInjector(inj);
    warmUp(board, 99, 3000); // every section differs from the checkpoint
    const std::string error =
        expectFailsClosed(board, bad, "bad last node section");
    EXPECT_NE(error.find("node1"), std::string::npos) << error;
    EXPECT_NE(error.find("stored in set 0 does not map there"),
              std::string::npos)
        << error;
}

TEST(IesckptFormatTest, FileRoundTripMatchesByteRoundTrip)
{
    const BoardConfig cfg = makeUniformBoard(2, 4, smallCache());
    const std::string path = ::testing::TempDir() + "iesckpt_fmt.ckpt";
    MemoriesBoard source(cfg);
    warmUp(source);
    source.saveState(path);

    MemoriesBoard restored(cfg);
    restored.loadState(path);
    EXPECT_EQ(fingerprintOf(restored), fingerprintOf(source));
    std::remove(path.c_str());
}

} // namespace
} // namespace memories::ies
