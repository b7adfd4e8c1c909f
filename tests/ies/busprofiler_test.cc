#include "ies/busprofiler.hh"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/logging.hh"
#include "telemetry/sampler.hh"

namespace memories::ies
{
namespace
{

bus::BusTransaction
readAt(Addr addr, CpuId cpu = 0)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.cpu = cpu;
    t.op = bus::BusOp::Read;
    return t;
}

TEST(BusProfilerTest, RejectsZeroWindow)
{
    BusProfilerConfig cfg;
    cfg.windowCycles = 0;
    EXPECT_THROW(BusProfiler{cfg}, FatalError);
}

TEST(BusProfilerTest, WindowUtilization)
{
    BusProfilerConfig cfg;
    cfg.windowCycles = 100;
    BusProfiler profiler(cfg);
    bus::Bus6xx bus;
    profiler.plugInto(bus);

    // 10 tenures in the first window, 20 in the second.
    for (int i = 0; i < 10; ++i) {
        bus.issue(readAt(0x1000u + 128u * i));
        bus.tick(9);
    }
    for (int i = 0; i < 20; ++i) {
        bus.issue(readAt(0x9000u + 128u * i));
        bus.tick(4);
    }
    profiler.finish();

    ASSERT_GE(profiler.utilizationSeries().size(), 2u);
    EXPECT_NEAR(profiler.utilizationSeries()[0], 0.10, 1e-9);
    EXPECT_NEAR(profiler.utilizationSeries()[1], 0.20, 1e-9);
    EXPECT_NEAR(profiler.peakUtilization(), 0.20, 1e-9);
    EXPECT_GT(profiler.meanUtilization(), 0.0);
}

TEST(BusProfilerTest, BurstDetection)
{
    BusProfilerConfig cfg;
    cfg.burstGapCycles = 4;
    BusProfiler profiler(cfg);
    bus::Bus6xx bus;
    profiler.plugInto(bus);

    // A 5-tenure back-to-back burst, a long gap, then one lone tenure.
    for (int i = 0; i < 5; ++i)
        bus.issue(readAt(0x1000u + 128u * i));
    bus.tick(100);
    bus.issue(readAt(0x9000));
    profiler.finish();

    // Buckets of 4 tenures: the lone tenure in [0,4), the burst in [4,8).
    const auto &bursts = profiler.burstHistogram();
    EXPECT_EQ(bursts.samples(), 2u);
    EXPECT_EQ(bursts.maxSeen(), 5u);
    EXPECT_DOUBLE_EQ(bursts.mean(), 3.0);
    EXPECT_EQ(bursts.count(0), 1u);
    EXPECT_EQ(bursts.count(1), 1u);
}

TEST(BusProfilerTest, PerOpAndPerCpuCounts)
{
    BusProfiler profiler;
    bus::Bus6xx bus;
    profiler.plugInto(bus);

    bus.issue(readAt(0x1000, 3));
    bus::BusTransaction w = readAt(0x2000, 5);
    w.op = bus::BusOp::Rwitm;
    bus.issue(w);
    profiler.finish();

    EXPECT_EQ(profiler.opCount(bus::BusOp::Read), 1u);
    EXPECT_EQ(profiler.opCount(bus::BusOp::Rwitm), 1u);
    EXPECT_EQ(profiler.cpuCount(3), 1u);
    EXPECT_EQ(profiler.cpuCount(5), 1u);
    EXPECT_EQ(profiler.totalTenures(), 2u);
}

TEST(BusProfilerTest, CountsNonMemoryOpsToo)
{
    // The profiler measures the *bus*, not the cacheable subset.
    BusProfiler profiler;
    bus::Bus6xx bus;
    profiler.plugInto(bus);
    bus::BusTransaction io;
    io.op = bus::BusOp::IoRead;
    bus.issue(io);
    profiler.finish();
    EXPECT_EQ(profiler.totalTenures(), 1u);
}

TEST(BusProfilerTest, ClearResets)
{
    BusProfiler profiler;
    bus::Bus6xx bus;
    profiler.plugInto(bus);
    bus.issue(readAt(0x1000));
    profiler.finish();
    profiler.clear();
    EXPECT_EQ(profiler.totalTenures(), 0u);
    EXPECT_TRUE(profiler.utilizationSeries().empty());
}

TEST(BusProfilerTest, PassiveOnTheBus)
{
    BusProfiler profiler;
    bus::Bus6xx bus;
    profiler.plugInto(bus);
    EXPECT_EQ(bus.issue(readAt(0x1000)), bus::SnoopResponse::None);
}

TEST(BusProfilerTest, AttachTelemetryExportsProfilerSources)
{
    // Captures the last exported window to check the profiler's
    // counters, gauges and utilization histogram flow through the
    // telemetry sampler.
    struct LastWindow
    {
        std::vector<std::string> names;
        std::uint64_t histogramSamples = 0;
    } sink;

    BusProfilerConfig cfg;
    cfg.windowCycles = 100;
    BusProfiler profiler(cfg);
    bus::Bus6xx bus;
    profiler.plugInto(bus);

    telemetry::Sampler sampler(1000);
    sampler.addExporter([&sink](const telemetry::WindowRecord &w) {
        sink.names.clear();
        for (const auto &c : w.counters)
            sink.names.push_back(*c.name);
        for (const auto &g : w.gauges)
            sink.names.push_back(*g.name);
        sink.histogramSamples = 0;
        for (const auto *h : w.histograms)
            sink.histogramSamples += h->samples();
    });
    profiler.attachTelemetry(sampler);

    for (int i = 0; i < 50; ++i) {
        bus.issue(readAt(0x1000u + 128u * i));
        bus.tick(9);
    }
    sampler.advanceTo(bus.now());
    sampler.finish(bus.now());

    auto has = [&](const std::string &name) {
        return std::find(sink.names.begin(), sink.names.end(), name) !=
               sink.names.end();
    };
    EXPECT_TRUE(has("profiler.tenures"));
    EXPECT_TRUE(has("profiler.mean_utilization"));
    EXPECT_TRUE(has("profiler.peak_utilization"));
    EXPECT_GT(sink.histogramSamples, 0u)
        << "profiler windows must feed the utilization histogram";
}

} // namespace
} // namespace memories::ies
