#include "ies/commandmap.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "ies/board.hh"

namespace memories::ies
{
namespace
{

ForeignTransaction
foreign(std::uint32_t opcode, Addr addr = 0x1000, CpuId agent = 0)
{
    ForeignTransaction txn;
    txn.opcode = opcode;
    txn.addr = addr;
    txn.agent = agent;
    return txn;
}

TEST(CommandMapTest, MapAndTranslate)
{
    CommandMap cmap;
    cmap.map(0x21, bus::BusOp::Read);
    const auto op = cmap.translate(0x21);
    ASSERT_TRUE(op.has_value());
    EXPECT_EQ(*op, bus::BusOp::Read);
    EXPECT_EQ(cmap.size(), 1u);
}

TEST(CommandMapTest, DropIsExplicitNullopt)
{
    CommandMap cmap;
    cmap.drop(0x3f);
    EXPECT_FALSE(cmap.translate(0x3f).has_value());
    EXPECT_EQ(cmap.size(), 0u);
}

TEST(CommandMapTest, RemapOverridesWithoutDoubleCount)
{
    CommandMap cmap;
    cmap.map(0x10, bus::BusOp::Read);
    cmap.map(0x10, bus::BusOp::Rwitm);
    EXPECT_EQ(cmap.size(), 1u);
    EXPECT_EQ(*cmap.translate(0x10), bus::BusOp::Rwitm);
}

TEST(CommandMapTest, UnknownDefaultsToDrop)
{
    CommandMap cmap;
    EXPECT_FALSE(cmap.translate(0x77).has_value());
}

TEST(CommandMapTest, UnknownFatalPolicy)
{
    CommandMap cmap;
    cmap.setUnknownPolicy(CommandMap::UnknownPolicy::Fatal);
    EXPECT_THROW(cmap.translate(0x77), FatalError);
}

TEST(CommandMapTest, ParseTextFormat)
{
    const auto cmap = CommandMap::parse(
        "# example map\n"
        "map 0x00 READ\n"
        "map 0x01 RWITM\n"
        "drop 0x1f\n"
        "unknown fatal\n");
    EXPECT_EQ(*cmap.translate(0), bus::BusOp::Read);
    EXPECT_EQ(*cmap.translate(1), bus::BusOp::Rwitm);
    EXPECT_FALSE(cmap.translate(0x1f).has_value());
    EXPECT_THROW(cmap.translate(0x55), FatalError);
}

TEST(CommandMapTest, ParseRejectsGarbage)
{
    EXPECT_THROW(CommandMap::parse("map 0x00\n"), FatalError);
    EXPECT_THROW(CommandMap::parse("map 0x00 LOAD\n"), FatalError);
    EXPECT_THROW(CommandMap::parse("remap 0x00 READ\n"), FatalError);
    EXPECT_THROW(CommandMap::parse("unknown maybe\n"), FatalError);
}

TEST(CommandMapTest, MalformedOpcodesAreRejected)
{
    EXPECT_THROW(CommandMap::parse("map 0x10zz READ\n"), FatalError);
    EXPECT_THROW(CommandMap::parse("map 0x100000001 RWITM\n"),
                 FatalError);
    EXPECT_THROW(CommandMap::parse("map zz READ\n"), FatalError);
}

TEST(CommandMapTest, OpcodesReadAsCIntegers)
{
    const auto cmap = CommandMap::parse("map 0x1F READ\n"
                                        "map 010 RWITM\n"
                                        "map 9 WB\n"
                                        "drop 0xffffffff\n");
    EXPECT_EQ(*cmap.translate(0x1f), bus::BusOp::Read);
    EXPECT_EQ(*cmap.translate(8), bus::BusOp::Rwitm); // octal
    EXPECT_EQ(*cmap.translate(9), bus::BusOp::WriteBack);
    EXPECT_FALSE(cmap.translate(0xffffffff).has_value());
}

TEST(CommandMapTest, P6MapCoversTheBasics)
{
    const auto cmap = makeP6BusCommandMap();
    EXPECT_EQ(*cmap.translate(0x00), bus::BusOp::Read);
    EXPECT_EQ(*cmap.translate(0x01), bus::BusOp::Rwitm);
    EXPECT_EQ(*cmap.translate(0x02), bus::BusOp::WriteBack);
    EXPECT_EQ(*cmap.translate(0x08), bus::BusOp::IoRead);
    EXPECT_FALSE(cmap.translate(0x0f).has_value()); // deferred reply
}

TEST(InterposerTest, TranslatesAndIssues)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(
        1, 8,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(bus);

    InterposerCard card(bus, makeP6BusCommandMap());
    card.deliver(foreign(0x00, 0x8000, 1)); // read line
    bus.tick(1000);
    card.deliver(foreign(0x00, 0x8000, 2)); // second read: L3 hit
    board.drainAll();

    EXPECT_EQ(card.stats().translated, 2u);
    const auto s = board.node(0).stats();
    EXPECT_EQ(s.localRefs, 2u);
    EXPECT_EQ(s.localHits, 1u);
}

TEST(InterposerTest, DropsUnmappedAndCounts)
{
    bus::Bus6xx bus;
    InterposerCard card(bus, makeP6BusCommandMap());
    card.deliver(foreign(0xee));
    EXPECT_EQ(card.stats().dropped, 1u);
    EXPECT_EQ(bus.stats().tenures, 0u);
}

TEST(InterposerTest, DropsASizeNoTenureHolds)
{
    // A foreign line size above bus::maxTransactionSize would not fit
    // the tenure's size field: it is dropped like an unmapped opcode,
    // not truncated onto the 6xx side.
    bus::Bus6xx bus;
    InterposerCard card(bus, makeP6BusCommandMap());
    ForeignTransaction txn = foreign(0x00);
    txn.size = bus::maxTransactionSize + 1;
    EXPECT_EQ(card.deliver(txn), bus::SnoopResponse::None);
    EXPECT_EQ(card.stats().dropped, 1u);
    EXPECT_EQ(card.stats().translated, 0u);
    EXPECT_EQ(bus.stats().tenures, 0u);

    txn.size = bus::maxTransactionSize;
    card.deliver(txn);
    EXPECT_EQ(card.stats().translated, 1u);
    EXPECT_EQ(bus.stats().tenures, 1u);
}

TEST(InterposerTest, ForeignTimestampsAdvanceTheBus)
{
    bus::Bus6xx bus;
    InterposerCard card(bus, makeP6BusCommandMap());
    ForeignTransaction txn = foreign(0x00);
    txn.cycle = 500;
    card.deliver(txn);
    EXPECT_GE(bus.now(), 500u);
}

TEST(InterposerTest, ForeignWriteInvalidatesEmulatedLine)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(bus);

    InterposerCard card(bus, makeP6BusCommandMap());
    card.deliver(foreign(0x00, 0x9000, 0)); // node 0 reads
    bus.tick(1000);
    card.deliver(foreign(0x01, 0x9000, 4)); // node 1 BRIL (RWITM)
    board.drainAll();

    EXPECT_EQ(board.node(0).probeState(0x9000),
              protocol::LineState::Invalid);
    EXPECT_EQ(board.node(1).probeState(0x9000),
              protocol::LineState::Modified);
}

} // namespace
} // namespace memories::ies
