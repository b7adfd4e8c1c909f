/**
 * @file
 * StimulusGen property tests: streams are pure functions of their
 * seed, structurally valid (aligned addresses, nondecreasing cycles,
 * dense traceIds), cover the op mix they were asked for, shrink
 * correctly under ddmin, and survive a trace-file round trip.
 */

#include "oracle/stimulus.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>

#include "bus/busop.hh"
#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "trace/record.hh"
#include "trace/tracefile.hh"

namespace memories::oracle
{
namespace
{

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count = 1000)
{
    StimulusParams p;
    p.seed = seed;
    p.count = count;
    return StimulusGen(p).generate();
}

TEST(StimulusTest, DeterministicPerSeed)
{
    const auto a = stream(3);
    const auto b = stream(3);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].addr, b[i].addr);
        EXPECT_EQ(a[i].op, b[i].op);
        EXPECT_EQ(a[i].cpu, b[i].cpu);
        EXPECT_EQ(a[i].cycle, b[i].cycle);
        EXPECT_EQ(a[i].traceId, b[i].traceId);
    }

    const auto c = stream(4);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i)
        differs |= a[i].addr != c[i].addr || a[i].op != c[i].op;
    EXPECT_TRUE(differs) << "seeds 3 and 4 generated identical streams";
}

TEST(StimulusTest, StructurallyValidStreams)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        const auto txns = stream(seed);
        ASSERT_EQ(txns.size(), 1000u);
        Cycle prev = 0;
        for (std::size_t i = 0; i < txns.size(); ++i) {
            const auto &t = txns[i];
            EXPECT_EQ(t.addr % 128, 0u);
            EXPECT_EQ(t.size, 128u);
            EXPECT_EQ(t.traceId, i + 1);
            EXPECT_LT(t.cpu, 8u);
            EXPECT_GE(t.cycle, 1u);
            EXPECT_GE(t.cycle, prev);
            prev = t.cycle;
        }
    }
}

TEST(StimulusTest, OpMixCoversEveryRequestedClass)
{
    const auto txns = stream(1, 4000);
    std::set<bus::BusOp> seen;
    for (const auto &t : txns)
        seen.insert(t.op);

    // The default mix weights every memory op and the filtered class;
    // 4000 draws make each one all but certain.
    for (const bus::BusOp op :
         {bus::BusOp::Read, bus::BusOp::ReadIfetch, bus::BusOp::Rwitm,
          bus::BusOp::DClaim, bus::BusOp::WriteBack})
        EXPECT_TRUE(seen.count(op)) << bus::busOpName(op);

    const bool any_filtered = std::any_of(
        txns.begin(), txns.end(), [](const bus::BusTransaction &t) {
            return !bus::isMemoryOp(t.op);
        });
    EXPECT_TRUE(any_filtered)
        << "pFiltered > 0 but no filtered op was generated";
}

TEST(StimulusTest, SharingActuallyShares)
{
    // With shareFraction > 0, some line must be referenced by two
    // different CPUs — that is the whole point of the shared pool.
    const auto txns = stream(2, 2000);
    std::map<Addr, std::set<std::uint8_t>> users;
    for (const auto &t : txns)
        if (bus::isMemoryOp(t.op))
            users[t.addr].insert(t.cpu);
    const bool shared = std::any_of(
        users.begin(), users.end(),
        [](const auto &kv) { return kv.second.size() >= 2; });
    EXPECT_TRUE(shared);
}

TEST(StimulusTest, ShrinkFindsMinimalWitness)
{
    const auto txns = stream(5, 600);

    // Synthetic failure: the stream fails while it still holds a Rwitm
    // and a WriteBack. The minimal witness is exactly two transactions.
    const FailPredicate pred =
        [](const std::vector<bus::BusTransaction> &s) {
            bool rwitm = false;
            bool wb = false;
            for (const auto &t : s) {
                rwitm |= t.op == bus::BusOp::Rwitm;
                wb |= t.op == bus::BusOp::WriteBack;
            }
            return rwitm && wb;
        };
    ASSERT_TRUE(pred(txns));

    const auto shrunk = shrinkStream(txns, pred);
    EXPECT_EQ(shrunk.size(), 2u);
    EXPECT_TRUE(pred(shrunk));
}

TEST(StimulusTest, ShrinkOfPassingStreamIsFatal)
{
    const auto txns = stream(6, 50);
    const FailPredicate never =
        [](const std::vector<bus::BusTransaction> &) { return false; };
    EXPECT_THROW(shrinkStream(txns, never), FatalError);
}

TEST(StimulusTest, CanonicalStreamSurvivesTraceRoundTrip)
{
    const auto canonical = canonicalizeForReplay(stream(9, 400));
    ASSERT_FALSE(canonical.empty());
    EXPECT_EQ(canonical.front().cycle, 1u);
    for (std::size_t i = 1; i < canonical.size(); ++i) {
        EXPECT_LE(canonical[i].cycle - canonical[i - 1].cycle,
                  trace::maxCycleDelta);
    }

    const std::string path =
        ::testing::TempDir() + "stimulus_roundtrip.trace";
    trace::writeBusTrace(path, canonical);
    const auto replayed = readTrace(path);
    std::remove(path.c_str());

    ASSERT_EQ(replayed.size(), canonical.size());
    for (std::size_t i = 0; i < canonical.size(); ++i) {
        EXPECT_EQ(replayed[i].addr, canonical[i].addr);
        EXPECT_EQ(replayed[i].op, canonical[i].op);
        EXPECT_EQ(replayed[i].cpu, canonical[i].cpu);
        EXPECT_EQ(replayed[i].cycle, canonical[i].cycle);
        EXPECT_EQ(replayed[i].size, canonical[i].size);
        EXPECT_EQ(replayed[i].traceId, canonical[i].traceId);
    }
}

TEST(StimulusTest, GeneratedFaultPlansAreValidAndDeterministic)
{
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        const fault::FaultPlan plan = randomFaultPlan(rng);
        EXPECT_GE(plan.faults.size(), 1u);
        EXPECT_LE(plan.faults.size(), 6u);
        // describe() must render every generated plan without fatal():
        // the generator only sets fields the grammar can express.
        EXPECT_FALSE(plan.describe().empty());
    }

    Rng a(23);
    Rng b(23);
    EXPECT_EQ(randomFaultPlan(a), randomFaultPlan(b));
}

TEST(StimulusTest, RejectsDegenerateParams)
{
    StimulusParams p;
    p.cpus = 0;
    EXPECT_THROW(StimulusGen{p}, FatalError);

    p = StimulusParams{};
    p.footprintLines = 0;
    EXPECT_THROW(StimulusGen{p}, FatalError);
}

TEST(StimulusTest, HotStreamMatchesItsGoldenCrc)
{
    // perfbench's replay-hot stimulus at 2^14 tenures. The CRC runs
    // over each tenure's serialized fields (saveTransaction), so it
    // pins the stream itself, not BusTransaction's in-memory layout:
    // a change to the random draws that moves any field fails here.
    StimulusParams p;
    p.seed = 1;
    p.count = std::size_t{1} << 14;
    p.cpus = 8;
    p.shareFraction = 0.5;
    p.pRead = 0.40;
    p.pIfetch = 0.04;
    p.pRwitm = 0.22;
    p.pDclaim = 0.14;
    p.pWriteback = 0.14;
    ckpt::Sink sink;
    for (const bus::BusTransaction &txn : StimulusGen(p).generate())
        bus::saveTransaction(sink, txn);
    ASSERT_EQ(sink.bytes().size(), p.count * 25);
    EXPECT_EQ(ckpt::crc32(sink.bytes().data(), sink.bytes().size()),
              0x1ff010f7u);
}

} // namespace
} // namespace memories::oracle
