#include "workload/oltp.hh"

#include <gtest/gtest.h>

#include "checkpoint/codec.hh"
#include "common/logging.hh"

namespace memories::workload
{
namespace
{

OltpParams
smallParams()
{
    OltpParams p;
    p.threads = 4;
    p.dbBytes = 64 * MiB;
    return p;
}

TEST(OltpTest, RejectsDegenerateConfigs)
{
    OltpParams p = smallParams();
    p.threads = 0;
    EXPECT_THROW(OltpWorkload{p}, FatalError);

    p = smallParams();
    p.dbBytes = 4096;
    EXPECT_THROW(OltpWorkload{p}, FatalError);

    p = smallParams();
    p.sharedFrac = 1.5;
    EXPECT_THROW(OltpWorkload{p}, FatalError);
}

TEST(OltpTest, AddressesStayInFootprint)
{
    OltpWorkload wl(smallParams());
    for (int i = 0; i < 20000; ++i) {
        const auto ref = wl.next(i % 4);
        EXPECT_GE(ref.addr, workloadBaseAddr);
        EXPECT_LT(ref.addr, workloadBaseAddr + 64 * MiB);
    }
}

TEST(OltpTest, SharedPoolIsSharedAcrossThreads)
{
    // Every thread must touch the shared pool (front of the address
    // map); private partitions must not overlap.
    OltpParams p = smallParams();
    p.sharedFrac = 0.5;
    OltpWorkload wl(p);
    const Addr shared_end =
        workloadBaseAddr +
        static_cast<Addr>((64 * MiB / 4096) * p.sharedPoolFrac) * 4096;

    std::vector<std::uint64_t> shared_hits(4, 0);
    for (int i = 0; i < 40000; ++i) {
        const unsigned tid = i % 4;
        const auto ref = wl.next(tid);
        if (ref.addr < shared_end)
            ++shared_hits[tid];
    }
    for (unsigned t = 0; t < 4; ++t)
        EXPECT_GT(shared_hits[t], 2000u) << "thread " << t;
}

TEST(OltpTest, PrivateRegionsAreThreadAffine)
{
    OltpParams p = smallParams();
    p.sharedFrac = 0.0; // everything private
    OltpWorkload wl(p);
    const std::uint64_t shared_pages =
        static_cast<std::uint64_t>((p.dbBytes / p.pageBytes) *
                                   p.sharedPoolFrac);
    const std::uint64_t private_pages =
        (p.dbBytes / p.pageBytes - shared_pages) / p.threads;
    const Addr private_base =
        workloadBaseAddr + shared_pages * p.pageBytes;

    for (int i = 0; i < 10000; ++i) {
        const unsigned tid = i % 4;
        const auto ref = wl.next(tid);
        const Addr lo =
            private_base + tid * private_pages * p.pageBytes;
        const Addr hi = lo + private_pages * p.pageBytes;
        EXPECT_GE(ref.addr, lo);
        EXPECT_LT(ref.addr, hi);
    }
}

TEST(OltpTest, WriteFractionRoughlyRespected)
{
    OltpParams p = smallParams();
    p.writeFrac = 0.25;
    OltpWorkload wl(p);
    int writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        writes += wl.next(i % 4).write;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.25, 0.03);
}

TEST(OltpTest, JournalingBurstsAreWritesBelowDatabase)
{
    OltpParams p = smallParams();
    p.journaling = true;
    p.journalPeriodRefs = 1000;
    p.journalBurstRefs = 100;
    p.journalBytes = 1 * MiB;
    OltpWorkload wl(p);

    int journal_refs = 0;
    for (int i = 0; i < 10000; ++i) {
        const bool in_burst = wl.inJournalBurst();
        const auto ref = wl.next(i % 4);
        if (in_burst) {
            ++journal_refs;
            EXPECT_TRUE(ref.write);
            EXPECT_LT(ref.addr, workloadBaseAddr);
            EXPECT_GE(ref.addr, workloadBaseAddr - p.journalBytes);
        }
    }
    // 100 of every 1000 refs are journal activity.
    EXPECT_NEAR(journal_refs / 10000.0, 0.1, 0.02);
}

TEST(OltpTest, JournalCursorAdvancesMonotonically)
{
    OltpParams p = smallParams();
    p.journaling = true;
    p.journalPeriodRefs = 100;
    p.journalBurstRefs = 100; // always in burst
    p.journalBytes = 64 * MiB;
    OltpWorkload wl(p);
    Addr prev = 0;
    for (int i = 0; i < 1000; ++i) {
        const auto ref = wl.next(0);
        if (i > 0) {
            EXPECT_GT(ref.addr, prev); // append-only until wrap
        }
        prev = ref.addr;
    }
}

TEST(OltpTest, JournalingDisabledMeansNoBursts)
{
    OltpWorkload wl(smallParams());
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(wl.inJournalBurst());
        wl.next(0);
    }
}

TEST(OltpTest, FootprintIncludesJournal)
{
    OltpParams p = smallParams();
    EXPECT_EQ(OltpWorkload(p).footprintBytes(), p.dbBytes);
    p.journaling = true;
    EXPECT_EQ(OltpWorkload(p).footprintBytes(),
              p.dbBytes + p.journalBytes);
}

TEST(OltpTest, DefaultStreamMatchesItsGoldenCrc)
{
    // The first 100 000 references of the default model, threads taken
    // round-robin. Pins every draw behind them (Zipf page choice,
    // bounded offsets, store and pool coin flips) to the bit.
    OltpWorkload wl{OltpParams{}};
    ckpt::Sink sink;
    for (unsigned i = 0; i < 100'000; ++i) {
        const MemRef ref = wl.next(i % wl.threads());
        sink.u64(ref.addr);
        sink.u8(ref.write ? 1 : 0);
        sink.u8(ref.ifetch ? 1 : 0);
    }
    EXPECT_EQ(ckpt::crc32(sink.bytes().data(), sink.bytes().size()),
              0x4f47e2a8u);
}

} // namespace
} // namespace memories::workload
