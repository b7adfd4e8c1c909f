#include "ies/txnbuffer.hh"

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/logging.hh"

namespace memories::ies
{
namespace
{

bus::BusTransaction
txnAt(Cycle cycle, Addr addr = 0x1000)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.cycle = cycle;
    txn.op = bus::BusOp::Read;
    return txn;
}

TEST(TxnBufferTest, RejectsBadParameters)
{
    EXPECT_THROW(TransactionBuffer(0, 42), FatalError);
    EXPECT_THROW(TransactionBuffer(512, 0), FatalError);
    EXPECT_THROW(TransactionBuffer(512, 101), FatalError);
}

TEST(TxnBufferTest, PushPopFifoOrder)
{
    TransactionBuffer buf(8, 100);
    buf.push(txnAt(0, 0x1000));
    buf.push(txnAt(1, 0x2000));
    const auto a = buf.drain(10);
    const auto b = buf.drain(10);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->addr, 0x1000u);
    EXPECT_EQ(b->addr, 0x2000u);
}

TEST(TxnBufferTest, RejectsWhenFull)
{
    TransactionBuffer buf(2, 42);
    EXPECT_TRUE(buf.push(txnAt(0)));
    EXPECT_TRUE(buf.push(txnAt(1)));
    EXPECT_FALSE(buf.push(txnAt(2)));
    EXPECT_EQ(buf.rejected(), 1u);
}

TEST(TxnBufferTest, DrainIsRateLimited)
{
    // 42% throughput: 100 elapsed cycles earn 42 retirements.
    TransactionBuffer buf(512, 42);
    for (int i = 0; i < 100; ++i)
        buf.push(txnAt(0));
    int drained = 0;
    while (buf.drain(100))
        ++drained;
    EXPECT_EQ(drained, 42);
    // Another 100 cycles drain the rest at the same rate.
    while (buf.drain(200))
        ++drained;
    EXPECT_EQ(drained, 84);
}

TEST(TxnBufferTest, CreditsDoNotDrainEmptyFutureWork)
{
    // Idle cycles bank credits, but the bank is capped so a long idle
    // stretch cannot buy unbounded instant throughput later.
    TransactionBuffer buf(4, 50);
    ASSERT_FALSE(buf.drain(1'000'000).has_value());
    for (int i = 0; i < 4; ++i)
        buf.push(txnAt(1'000'000));
    int drained = 0;
    while (buf.drain(1'000'000))
        ++drained;
    EXPECT_EQ(drained, 4); // at most capacity's worth of banked credits
}

TEST(TxnBufferTest, NoCreditsNoDrain)
{
    TransactionBuffer buf(8, 42);
    buf.push(txnAt(0));
    EXPECT_FALSE(buf.drain(0).has_value());
    EXPECT_FALSE(buf.drain(1).has_value()); // 42 credits < 100
    EXPECT_TRUE(buf.drain(3).has_value());  // 126 credits
}

TEST(TxnBufferTest, HighWaterTracksDeepestOccupancy)
{
    TransactionBuffer buf(8, 100);
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    buf.drain(100);
    buf.drain(100);
    buf.push(txnAt(100));
    EXPECT_EQ(buf.highWater(), 3u);
}

TEST(TxnBufferTest, DrainUnpacedIgnoresCredits)
{
    TransactionBuffer buf(8, 42);
    buf.push(txnAt(0));
    buf.push(txnAt(0));
    int drained = 0;
    while (buf.drainUnpaced())
        ++drained;
    EXPECT_EQ(drained, 2);
    EXPECT_TRUE(buf.empty());
}

TEST(TxnBufferTest, BoardDefaultsSustainTypicalUtilization)
{
    // At 20% arrival (one txn per 5 cycles) and 42% drain, the buffer
    // must never fill: the paper's board never posted a retry.
    TransactionBuffer buf(512, 42);
    std::uint64_t rejected = 0;
    for (Cycle c = 0; c < 100'000; c += 5) {
        while (buf.drain(c)) {
        }
        rejected += !buf.push(txnAt(c));
    }
    EXPECT_EQ(rejected, 0u);
    EXPECT_LT(buf.highWater(), 16u);
}

/** @p n read records at @p cycle, after @p before. */
std::vector<bus::BusTransaction>
burstAt(Cycle cycle, std::size_t n,
        std::vector<bus::BusTransaction> before = {})
{
    for (std::size_t i = 0; i < n; ++i)
        before.push_back(txnAt(cycle));
    return before;
}

/**
 * How many of @p line a copy of the buffer accepts when fed the way
 * the board feeds it: records the address filter drops are skipped,
 * every other one runs drain(cycle) until nullopt, then push(); the
 * count stops at the first rejection.
 */
std::size_t
acceptedByCopy(TransactionBuffer copy,
               const std::vector<bus::BusTransaction> &line)
{
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (bus::isFilteredOp(line[i].op))
            continue;
        while (copy.drain(line[i].cycle)) {
        }
        if (!copy.push(line[i]))
            return i;
    }
    return line.size();
}

std::size_t
walk(const TransactionBuffer &buf,
     const std::vector<bus::BusTransaction> &line)
{
    return buf.admissiblePrefix(line.data(), line.size());
}

std::vector<std::uint8_t>
stateBytes(const TransactionBuffer &buf)
{
    ckpt::Sink sink;
    buf.saveState(sink);
    return sink.bytes();
}

TEST(TxnBufferTest, AdmissibleIsPure)
{
    TransactionBuffer buf(8, 42);
    for (int i = 0; i < 6; ++i)
        buf.push(txnAt(0));
    const auto before = stateBytes(buf);
    const auto line = burstAt(500, 16);
    const std::size_t first = walk(buf, line);
    EXPECT_EQ(first, acceptedByCopy(buf, line));
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(walk(buf, line), first); // walking never mutates
    EXPECT_EQ(stateBytes(buf), before);
    EXPECT_EQ(buf.size(), 6u);
    EXPECT_EQ(buf.retired(), 0u);
}

TEST(TxnBufferTest, AdmissibleMatchesDrainThenPush)
{
    // A full buffer and a same-cycle line: the credits earned by
    // `now` retire part of the backlog, and that many records fit.
    struct Case
    {
        Cycle now;
        std::size_t want;
    };
    for (const Case c : {Case{0, 0}, Case{3, 1}, Case{10, 4},
                         Case{250, 8}, Case{1'000'000, 8}}) {
        TransactionBuffer buf(8, 42);
        for (int i = 0; i < 8; ++i)
            buf.push(txnAt(0));
        const auto line = burstAt(c.now, 12);
        EXPECT_EQ(acceptedByCopy(buf, line), c.want) << "now=" << c.now;
        EXPECT_EQ(walk(buf, line), c.want) << "now=" << c.now;
    }

    // One record every other cycle earns 84 credits against the 100
    // one retirement costs: the empty buffer fills by about one slot
    // every six records, and the walk stops where the copy first
    // rejects.
    TransactionBuffer buf(8, 42);
    std::vector<bus::BusTransaction> line;
    for (Cycle c = 1; c <= 200; c += 2)
        line.push_back(txnAt(c));
    EXPECT_EQ(acceptedByCopy(buf, line), 47u);
    EXPECT_EQ(walk(buf, line), 47u);
}

TEST(TxnBufferTest, AdmissibleHonoursStallAndSlotLoss)
{
    // A retirement stall suppresses the earned span; a slot-loss fault
    // shrinks the capacity each record is checked against.
    TransactionBuffer buf(8, 100);
    for (int i = 0; i < 8; ++i)
        buf.push(txnAt(0));
    buf.injectStall(1'000);
    const auto expect = [&](const std::vector<bus::BusTransaction> &line,
                            std::size_t want) {
        EXPECT_EQ(acceptedByCopy(buf, line), want);
        EXPECT_EQ(walk(buf, line), want);
    };
    expect(burstAt(500, 8), 0);   // no credits earned inside the stall
    expect(burstAt(1'004, 8), 4); // four cycles past it retire four
    // A line crossing the stall's end: nothing fits before cycle 1001,
    // so the walk stops at its first record.
    expect(burstAt(1'004, 8, burstAt(999, 1)), 0);
    buf.injectSlotLoss(6, 2'000);
    // By cycle 1008 all 8 are retirable but only 2 slots exist, and a
    // refused record ends the prefix even if later ones would fit.
    expect(burstAt(1'008, 8), 2);
    expect(burstAt(2'000, 8, burstAt(1'008, 3)), 2);
    expect(burstAt(2'000, 12), 8); // fault expired
}

TEST(TxnBufferTest, AdmissibleCapsBankedCredits)
{
    // A long idle stretch banks at most capacity*100 credits. The cap
    // retires the held entry and then three same-cycle arrivals, so a
    // burst fits capacity plus those three — never unbounded.
    TransactionBuffer buf(4, 50);
    buf.push(txnAt(0));
    const auto line = burstAt(1'000'000, 16);
    EXPECT_EQ(acceptedByCopy(buf, line), 7u);
    EXPECT_EQ(walk(buf, line), 7u);
}

TEST(TxnBufferTest, AdmissibleSkipsFilteredOps)
{
    // The address filter drops non-memory ops before the buffer: they
    // take no slot and earn nothing, wherever they sit in the line.
    TransactionBuffer buf(2, 42);
    auto line = burstAt(0, 5);
    line[0].op = bus::BusOp::IoRead;
    line[2].op = bus::BusOp::Sync;
    EXPECT_EQ(acceptedByCopy(buf, line), 4u);
    EXPECT_EQ(walk(buf, line), 4u);
}

TEST(TxnBufferTest, AdmissibleEqualsTheBufferOnRandomHistories)
{
    // Random capacities, rates, histories, stall and slot-loss
    // windows, filtered ops, same-cycle bursts and cycles older than
    // the last earn: the walk must equal what a copy of the buffer
    // accepts, and must leave the buffer untouched.
    std::mt19937_64 rng(20'240'917);
    const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    std::size_t partial = 0;
    constexpr int trials = 4'000;
    for (int trial = 0; trial < trials; ++trial) {
        TransactionBuffer buf(pick(1, 16),
                              static_cast<unsigned>(pick(1, 100)));
        Cycle now = pick(0, 50);
        for (std::uint64_t i = pick(0, 40); i > 0; --i) {
            now += pick(0, 4);
            while (buf.drain(now)) {
            }
            buf.push(txnAt(now));
        }
        if (pick(0, 3) == 0)
            buf.injectStall(now + pick(0, 60));
        if (pick(0, 3) == 0)
            buf.injectSlotLoss(pick(1, 16), now + pick(0, 60));

        std::vector<bus::BusTransaction> line;
        Cycle cycle = now >= 8 && pick(0, 4) == 0 ? now - pick(1, 8) : now;
        for (std::uint64_t i = pick(1, 48); i > 0; --i) {
            if (pick(0, 2) != 0) // same-cycle runs are common
                cycle += pick(0, 6);
            bus::BusTransaction txn = txnAt(cycle);
            if (pick(0, 7) == 0)
                txn.op = bus::BusOp::IoWrite;
            line.push_back(txn);
        }

        const auto before = stateBytes(buf);
        const std::size_t want = acceptedByCopy(buf, line);
        ASSERT_EQ(walk(buf, line), want) << "trial " << trial;
        ASSERT_EQ(stateBytes(buf), before) << "trial " << trial;
        partial += want < line.size();
    }
    // Both outcomes are exercised: lines cut short and lines whole.
    EXPECT_GT(partial, std::size_t{trials / 10});
    EXPECT_LT(partial, std::size_t{trials * 9 / 10});
}

TEST(TxnBufferTest, SustainedOverloadEventuallyRejects)
{
    // Above 42% sustained arrival the buffer must fill and reject.
    TransactionBuffer buf(64, 42);
    std::uint64_t rejected = 0;
    for (Cycle c = 0; c < 1'000; ++c) { // 100% arrival rate
        while (buf.drain(c)) {
        }
        rejected += !buf.push(txnAt(c));
    }
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace memories::ies
