#include "sim/detailed.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace memories::sim
{
namespace
{

DetailedParams
smallParams()
{
    DetailedParams p;
    p.cache = cache::CacheConfig{64 * KiB, 4, 128,
                                 cache::ReplacementPolicy::LRU};
    return p;
}

bus::BusTransaction
txn(Addr addr, bus::BusOp op = bus::BusOp::Read, Cycle cycle = 0)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cycle = cycle;
    return t;
}

TEST(DetailedSimTest, RejectsBadParams)
{
    auto p = smallParams();
    p.sdramBanks = 0;
    EXPECT_THROW(DetailedCacheSimulator{p}, FatalError);
    p = smallParams();
    p.reuseSamplePeriod = 0;
    EXPECT_THROW(DetailedCacheSimulator{p}, FatalError);
}

TEST(DetailedSimTest, ColdMissThenHit)
{
    DetailedCacheSimulator sim(smallParams());
    sim.process(txn(0x1000));
    sim.process(txn(0x1000));
    sim.finish();
    const auto s = sim.stats();
    EXPECT_EQ(s.accesses, 2u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_DOUBLE_EQ(s.missRatio(), 0.5);
}

TEST(DetailedSimTest, IgnoresNonMemoryOps)
{
    DetailedCacheSimulator sim(smallParams());
    sim.process(txn(0x1000, bus::BusOp::IoRead));
    EXPECT_EQ(sim.stats().accesses, 0u);
}

TEST(DetailedSimTest, MissesCostMoreThanHits)
{
    DetailedCacheSimulator sim(smallParams());
    for (int i = 0; i < 1000; ++i)
        sim.process(txn(0x1000u + 128u * (i % 512),
                        bus::BusOp::Read, 100u * i));
    sim.finish();
    const auto s = sim.stats();
    EXPECT_GT(s.meanLatencyCycles,
              static_cast<double>(smallParams().directoryLookupCycles));
    EXPECT_GT(s.misses, 0u);
}

TEST(DetailedSimTest, LatencyHistogramPopulated)
{
    DetailedCacheSimulator sim(smallParams());
    for (int i = 0; i < 100; ++i)
        sim.process(txn(0x1000u + 128u * i, bus::BusOp::Read, 10u * i));
    sim.finish();
    const auto &latency = sim.latencyHistogram();
    EXPECT_EQ(latency.samples(), 100u);
    EXPECT_GT(latency.mean(), 0.0);
    EXPECT_GE(static_cast<double>(latency.maxSeen()), latency.mean());
    std::uint64_t bucketed = latency.overflow();
    for (std::size_t i = 0; i < latency.buckets(); ++i)
        bucketed += latency.count(i);
    EXPECT_EQ(bucketed, latency.samples());
}

TEST(DetailedSimTest, ReuseHistogramSamples)
{
    DetailedCacheSimulator sim(smallParams());
    for (int i = 0; i < 1000; ++i)
        sim.process(txn(0x1000, bus::BusOp::Read, i));
    sim.finish();
    // Every sampled access re-touches the line just before it: reuse
    // distance 0, the first log2 bucket.
    const auto &reuse = sim.reuseHistogram();
    EXPECT_EQ(reuse.samples(), 1000u / smallParams().reuseSamplePeriod);
    EXPECT_EQ(reuse.count(0), reuse.samples());
    EXPECT_EQ(reuse.maxSeen(), 0u);
}

TEST(DetailedSimTest, EvictionsCounted)
{
    auto p = smallParams();
    p.cache = cache::CacheConfig{8 * KiB, 1, 128,
                                 cache::ReplacementPolicy::LRU};
    DetailedCacheSimulator sim(p);
    for (int i = 0; i < 128; ++i)
        sim.process(txn(128u * i));
    for (int i = 0; i < 128; ++i)
        sim.process(txn(8 * KiB + 128u * i)); // conflicts
    sim.finish();
    EXPECT_GT(sim.stats().evictions, 0u);
}

TEST(DetailedSimTest, RunTraceConsumesWholeFile)
{
    const std::string path = ::testing::TempDir() + "detailed_trace_" +
                             std::to_string(::getpid()) + ".ies";
    std::vector<bus::BusTransaction> stream;
    for (int i = 0; i < 500; ++i) {
        stream.push_back(txn(0x1000u + 128u * (i % 64), bus::BusOp::Read,
                             5u * i));
    }
    trace::writeBusTrace(path, stream);
    DetailedCacheSimulator sim(smallParams());
    EXPECT_EQ(sim.runTrace(path), 500u);
    EXPECT_EQ(sim.stats().accesses, 500u);
    std::remove(path.c_str());
}

TEST(DetailedSimTest, WriteOpsDirtyTheLine)
{
    DetailedCacheSimulator sim(smallParams());
    sim.process(txn(0x1000, bus::BusOp::Rwitm));
    sim.process(txn(0x1000, bus::BusOp::Read, 100));
    sim.finish();
    EXPECT_EQ(sim.stats().hits, 1u);
}

TEST(DetailedSimTest, ManagementOpsNeverAllocate)
{
    DetailedCacheSimulator sim(smallParams());
    sim.process(txn(0x1000, bus::BusOp::Flush));
    sim.process(txn(0x2000, bus::BusOp::Kill, 10));
    sim.process(txn(0x3000, bus::BusOp::Clean, 20));
    // None of the lines is resident afterwards.
    sim.process(txn(0x1000, bus::BusOp::Read, 30));
    sim.finish();
    EXPECT_EQ(sim.stats().hits, 0u);
    EXPECT_EQ(sim.stats().misses, 4u);
}

TEST(DetailedSimTest, FlushEvictsResidentLine)
{
    DetailedCacheSimulator sim(smallParams());
    sim.process(txn(0x1000, bus::BusOp::Read));
    sim.process(txn(0x1000, bus::BusOp::Flush, 10));
    sim.process(txn(0x1000, bus::BusOp::Read, 20));
    sim.finish();
    // Read miss, flush hit, read miss again.
    EXPECT_EQ(sim.stats().hits, 1u);
    EXPECT_EQ(sim.stats().misses, 2u);
}

} // namespace
} // namespace memories::sim
