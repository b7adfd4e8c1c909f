#include "workload/synthetic.hh"

#include <gtest/gtest.h>

#include <set>

#include "common/logging.hh"

namespace memories::workload
{
namespace
{

TEST(UniformWorkloadTest, RejectsDegenerateConfig)
{
    EXPECT_THROW(UniformWorkload(0, 1 * MiB, 0.2), FatalError);
    EXPECT_THROW(UniformWorkload(4, 0, 0.2), FatalError);
}

TEST(UniformWorkloadTest, AddressesStayInFootprint)
{
    UniformWorkload wl(4, 1 * MiB, 0.3);
    for (int i = 0; i < 10000; ++i) {
        const auto ref = wl.next(i % 4);
        EXPECT_GE(ref.addr, workloadBaseAddr);
        EXPECT_LT(ref.addr, workloadBaseAddr + 1 * MiB);
    }
}

TEST(UniformWorkloadTest, WriteFractionRespected)
{
    UniformWorkload wl(1, 1 * MiB, 0.25, 42);
    int writes = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        writes += wl.next(0).write;
    EXPECT_NEAR(writes / static_cast<double>(n), 0.25, 0.02);
}

TEST(UniformWorkloadTest, DeterministicAcrossRuns)
{
    UniformWorkload a(2, 1 * MiB, 0.3, 7), b(2, 1 * MiB, 0.3, 7);
    for (int i = 0; i < 1000; ++i) {
        const auto ra = a.next(i % 2), rb = b.next(i % 2);
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.write, rb.write);
    }
}

TEST(UniformWorkloadTest, ThreadsAreIndependentStreams)
{
    UniformWorkload wl(2, 64 * MiB, 0.0, 9);
    std::set<Addr> t0, t1;
    for (int i = 0; i < 100; ++i) {
        t0.insert(wl.next(0).addr);
        t1.insert(wl.next(1).addr);
    }
    // Two independent uniform streams over 64MB share ~no addresses.
    std::set<Addr> both;
    for (Addr a : t0)
        if (t1.count(a))
            both.insert(a);
    EXPECT_LT(both.size(), 3u);
}

TEST(ZipfWorkloadTest, HotBlockDominates)
{
    ZipfWorkload wl(1, 10000, 4096, 0.9, 0.2, 11);
    std::uint64_t hot = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const auto ref = wl.next(0);
        hot += ref.addr < workloadBaseAddr + 100 * 4096;
    }
    // Top 1% of blocks should draw far more than 1% of accesses.
    EXPECT_GT(hot, static_cast<std::uint64_t>(n) / 10);
}

TEST(ZipfWorkloadTest, FootprintIsBlocksTimesBytes)
{
    ZipfWorkload wl(2, 1000, 4096, 0.5, 0.2);
    EXPECT_EQ(wl.footprintBytes(), 1000u * 4096u);
}

} // namespace
} // namespace memories::workload
