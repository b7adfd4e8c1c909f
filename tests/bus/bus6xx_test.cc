#include "bus/bus6xx.hh"

#include <gtest/gtest.h>

#include <vector>

#include "telemetry/sampler.hh"

namespace memories::bus
{
namespace
{

/** Scripted snooper that always answers a fixed response. */
class FixedSnooper : public BusSnooper
{
  public:
    explicit FixedSnooper(SnoopResponse response) : response_(response) {}

    SnoopResponse
    snoop(const BusTransaction &txn) override
    {
        seen.push_back(txn);
        return response_;
    }

    std::string snooperName() const override { return "fixed"; }

    std::vector<BusTransaction> seen;

  private:
    SnoopResponse response_;
};

class RecordingObserver : public BusObserver
{
  public:
    void
    observeResult(const BusTransaction &txn, SnoopResponse combined)
        override
    {
        results.emplace_back(txn, combined);
    }

    std::vector<std::pair<BusTransaction, SnoopResponse>> results;
};

BusTransaction
readAt(Addr addr, CpuId cpu = 0)
{
    BusTransaction txn;
    txn.addr = addr;
    txn.cpu = cpu;
    txn.op = BusOp::Read;
    return txn;
}

TEST(SnoopCombineTest, PriorityOrder)
{
    EXPECT_EQ(combineSnoop(SnoopResponse::None, SnoopResponse::Shared),
              SnoopResponse::Shared);
    EXPECT_EQ(combineSnoop(SnoopResponse::Shared,
                           SnoopResponse::Modified),
              SnoopResponse::Modified);
    EXPECT_EQ(combineSnoop(SnoopResponse::Modified,
                           SnoopResponse::Retry),
              SnoopResponse::Retry);
    EXPECT_EQ(combineSnoop(SnoopResponse::Retry, SnoopResponse::None),
              SnoopResponse::Retry);
}

TEST(Bus6xxTest, BroadcastsToAllSnoopers)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::None), b(SnoopResponse::None);
    bus.attach(&a);
    bus.attach(&b);
    bus.issue(readAt(0x1000));
    EXPECT_EQ(a.seen.size(), 1u);
    EXPECT_EQ(b.seen.size(), 1u);
}

TEST(Bus6xxTest, CombinesStrongestResponse)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::Shared), b(SnoopResponse::Modified);
    bus.attach(&a);
    bus.attach(&b);
    EXPECT_EQ(bus.issue(readAt(0x1000)), SnoopResponse::Modified);
}

TEST(Bus6xxTest, StampsAndAdvancesTime)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::None);
    bus.attach(&a);
    bus.tick(10);
    bus.issue(readAt(0x1000));
    EXPECT_EQ(a.seen[0].cycle, 10u);
    EXPECT_EQ(bus.now(), 11u); // address tenure consumed one cycle
}

TEST(Bus6xxTest, AdvanceToNeverGoesBackward)
{
    Bus6xx bus;
    bus.tick(100);
    bus.advanceTo(50);
    EXPECT_EQ(bus.now(), 100u);
    bus.advanceTo(200);
    EXPECT_EQ(bus.now(), 200u);
}

TEST(Bus6xxTest, DetachStopsDelivery)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::None);
    bus.attach(&a);
    bus.issue(readAt(0x1000));
    bus.detach(&a);
    bus.issue(readAt(0x2000));
    EXPECT_EQ(a.seen.size(), 1u);
}

TEST(Bus6xxTest, StatsCountCategories)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::None);
    bus.attach(&a);
    bus.issue(readAt(0x1000));
    BusTransaction io;
    io.op = BusOp::IoRead;
    bus.issue(io);
    EXPECT_EQ(bus.stats().tenures, 2u);
    EXPECT_EQ(bus.stats().memoryOps, 1u);
    EXPECT_EQ(bus.stats().filteredOps, 1u);
}

TEST(Bus6xxTest, StatsCountResponses)
{
    Bus6xx bus;
    FixedSnooper mod(SnoopResponse::Modified);
    bus.attach(&mod);
    bus.issue(readAt(0x1000));
    EXPECT_EQ(bus.stats().modifiedResponses, 1u);

    bus.detach(&mod);
    FixedSnooper retry(SnoopResponse::Retry);
    bus.attach(&retry);
    bus.issue(readAt(0x2000));
    EXPECT_EQ(bus.stats().retries, 1u);
}

TEST(Bus6xxTest, UtilizationIsTenuresOverCycles)
{
    Bus6xx bus;
    for (int i = 0; i < 10; ++i) {
        bus.issue(readAt(0x1000u + 128u * i));
        bus.tick(9); // 1 tenure cycle + 9 idle = 10% utilization
    }
    EXPECT_NEAR(bus.stats().utilization(bus.now()), 0.10, 1e-9);
}

TEST(Bus6xxTest, ObserverSeesCombinedResponse)
{
    Bus6xx bus;
    FixedSnooper a(SnoopResponse::Shared);
    RecordingObserver obs;
    bus.attach(&a);
    bus.attachObserver(&obs);
    bus.issue(readAt(0x1000));
    ASSERT_EQ(obs.results.size(), 1u);
    EXPECT_EQ(obs.results[0].second, SnoopResponse::Shared);
    EXPECT_EQ(obs.results[0].first.addr, 0x1000u);
}

TEST(Bus6xxTest, ObserverDetachStopsDelivery)
{
    Bus6xx bus;
    RecordingObserver obs;
    bus.attachObserver(&obs);
    bus.issue(readAt(0x1000));
    bus.detachObserver(&obs);
    bus.issue(readAt(0x2000));
    EXPECT_EQ(obs.results.size(), 1u);
}

TEST(Bus6xxTest, ClearStatsKeepsClock)
{
    Bus6xx bus;
    bus.issue(readAt(0x1000));
    const Cycle t = bus.now();
    bus.clearStats();
    EXPECT_EQ(bus.stats().tenures, 0u);
    EXPECT_EQ(bus.now(), t);
}

TEST(Bus6xxTest, SamplerWindowsReadEachWindowsTenuresAndUtilization)
{
    // The bus series `monitor`, microbench_throughput and config_sweep
    // export: one tenure every 10 cycles fills 10% of a 1000-cycle
    // window, one every 5 cycles 20%, and an idle window 0%.
    struct Window
    {
        std::uint64_t tenures = 0;
        std::uint64_t percent = 0; //!< this window's histogram sample
        double utilization = 0.0;  //!< mean since cycle 0
    };
    std::vector<Window> windows;
    std::uint64_t percentSum = 0;

    telemetry::Sampler sampler(1000);
    Bus6xx bus;
    bus.attachSampler(sampler);
    sampler.addExporter([&](const telemetry::WindowRecord &w) {
        Window seen;
        for (const auto &c : w.counters)
            if (*c.name == "bus.tenures")
                seen.tenures = c.delta;
        for (const auto &g : w.gauges)
            if (*g.name == "bus.utilization")
                seen.utilization = g.value;
        ASSERT_EQ(w.histograms.size(), 1u);
        const telemetry::Histogram &h = *w.histograms[0];
        EXPECT_EQ(h.name(), "bus.window_utilization_percent");
        EXPECT_EQ(h.samples(), windows.size() + 1);
        seen.percent = h.sum() - percentSum;
        percentSum = h.sum();
        windows.push_back(seen);
    });

    for (const Cycle gap : {Cycle{10}, Cycle{5}}) {
        for (Cycle at = 0; at < 1000; at += gap) {
            bus.issue(readAt(0x1000 + 128 * at));
            bus.tick(gap - 1);
        }
    }
    bus.tick(1000);

    ASSERT_EQ(windows.size(), 3u);
    EXPECT_EQ(windows[0].tenures, 100u);
    EXPECT_EQ(windows[0].percent, 10u);
    EXPECT_DOUBLE_EQ(windows[0].utilization, 0.10);
    EXPECT_EQ(windows[1].tenures, 200u);
    EXPECT_EQ(windows[1].percent, 20u);
    EXPECT_DOUBLE_EQ(windows[1].utilization, 0.15);
    EXPECT_EQ(windows[2].tenures, 0u);
    EXPECT_EQ(windows[2].percent, 0u);
    EXPECT_DOUBLE_EQ(windows[2].utilization, 0.10);
}

} // namespace
} // namespace memories::bus
