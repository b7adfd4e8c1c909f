#include "telemetry/sampler.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/counters.hh"
#include "common/logging.hh"

namespace memories::telemetry
{
namespace
{

/** Captures every exported window by value (names deep-copied). */
struct CapturingExporter
{
    struct Window
    {
        std::uint64_t index;
        Cycle begin;
        Cycle end;
        std::vector<std::string> names;
        std::vector<std::uint64_t> deltas;
        std::vector<std::uint64_t> totals;
        std::vector<double> gauges;
    };

    explicit CapturingExporter(Sampler &sampler)
    {
        sampler.addExporter(
            [this](const WindowRecord &w) { capture(w); });
    }
    CapturingExporter(const CapturingExporter &) = delete;
    CapturingExporter &operator=(const CapturingExporter &) = delete;

    void capture(const WindowRecord &w)
    {
        Window copy;
        copy.index = w.index;
        copy.begin = w.beginCycle;
        copy.end = w.endCycle;
        for (const auto &c : w.counters) {
            copy.names.push_back(*c.name);
            copy.deltas.push_back(c.delta);
            copy.totals.push_back(c.total);
        }
        for (const auto &g : w.gauges)
            copy.gauges.push_back(g.value);
        windows.push_back(std::move(copy));
    }

    std::vector<Window> windows;
};

TEST(SamplerTest, RejectsZeroWindow)
{
    EXPECT_THROW(Sampler(0), FatalError);
}

TEST(SamplerTest, ClosesWindowsOnBusCycles)
{
    Sampler sampler(100);
    CapturingExporter sink(sampler);

    CounterBank bank;
    auto h = bank.add("events");
    sampler.addBank("test", bank);

    bank.bump(h, 7);
    sampler.advanceTo(50); // still inside window 0
    EXPECT_EQ(sink.windows.size(), 0u);

    sampler.advanceTo(100); // window [0,100) closes
    ASSERT_EQ(sink.windows.size(), 1u);
    EXPECT_EQ(sink.windows[0].index, 0u);
    EXPECT_EQ(sink.windows[0].begin, 0u);
    EXPECT_EQ(sink.windows[0].end, 100u);
    ASSERT_EQ(sink.windows[0].names.size(), 1u);
    EXPECT_EQ(sink.windows[0].names[0], "test.events");
    EXPECT_EQ(sink.windows[0].deltas[0], 7u);
    EXPECT_EQ(sink.windows[0].totals[0], 7u);
}

TEST(SamplerTest, JumpAcrossSeveralWindowsEmitsAll)
{
    Sampler sampler(10);
    CapturingExporter sink(sampler);
    CounterBank bank;
    auto h = bank.add("c");
    sampler.addBank("", bank);

    bank.bump(h, 3);
    sampler.advanceTo(35); // windows [0,10) [10,20) [20,30) close
    ASSERT_EQ(sink.windows.size(), 3u);
    EXPECT_EQ(sink.windows[0].deltas[0], 3u); // all movement lands first
    EXPECT_EQ(sink.windows[1].deltas[0], 0u);
    EXPECT_EQ(sink.windows[2].deltas[0], 0u);
    EXPECT_EQ(sink.windows[2].totals[0], 3u);
    EXPECT_EQ(sink.windows[0].names[0], "c"); // empty prefix = bare name
}

TEST(SamplerTest, DeltaExactAcrossCounter40Wrap)
{
    // Seed a counter five shy of 2^40, register it, then move it by 15
    // so it wraps. The window delta must be exactly 15 and the running
    // total must keep counting in 64 bits.
    Sampler sampler(100);
    CapturingExporter sink(sampler);

    CounterBank bank;
    auto h = bank.add("wrapping");
    bank.bump(h, Counter40::mask - 4); // value = 2^40 - 5
    sampler.addBank("b", bank);

    bank.bump(h, 15); // wraps: value is now 10
    ASSERT_EQ(bank.value(h), 10u);
    sampler.advanceTo(100);
    ASSERT_EQ(sink.windows.size(), 1u);
    EXPECT_EQ(sink.windows[0].deltas[0], 15u);
    EXPECT_EQ(sink.windows[0].totals[0], 15u);

    // Wrap again the other way around the full range.
    bank.bump(h, Counter40::mask); // -1 mod 2^40 => value 9
    ASSERT_EQ(bank.value(h), 9u);
    sampler.advanceTo(200);
    ASSERT_EQ(sink.windows.size(), 2u);
    EXPECT_EQ(sink.windows[1].deltas[0], Counter40::mask);
    EXPECT_EQ(sink.windows[1].totals[0], 15u + Counter40::mask);
}

TEST(SamplerTest, AddValueUsesFull64BitDeltas)
{
    Sampler sampler(10);
    CapturingExporter sink(sampler);

    std::uint64_t big = std::uint64_t{1} << 50;
    sampler.addValue("big", [&big] { return big; });

    big += (std::uint64_t{1} << 45);
    sampler.advanceTo(10);
    ASSERT_EQ(sink.windows.size(), 1u);
    EXPECT_EQ(sink.windows[0].deltas[0], std::uint64_t{1} << 45);
}

TEST(SamplerTest, GaugesReadAtWindowClose)
{
    Sampler sampler(10);
    CapturingExporter sink(sampler);
    double level = 0.25;
    sampler.addGauge("level", [&level] { return level; });

    sampler.advanceTo(10);
    level = 0.75;
    sampler.advanceTo(20);
    ASSERT_EQ(sink.windows.size(), 2u);
    EXPECT_DOUBLE_EQ(sink.windows[0].gauges[0], 0.25);
    EXPECT_DOUBLE_EQ(sink.windows[1].gauges[0], 0.75);
}

TEST(SamplerTest, WindowCallbackRunsBeforeExport)
{
    // The callback folds this window's delta into a histogram; the
    // exporter must observe the histogram already updated.
    Sampler sampler(10);
    Histogram hist("per_window", 1, 8);
    sampler.addHistogram(hist);

    CounterBank bank;
    auto h = bank.add("n");
    sampler.addBank("", bank);
    sampler.addWindowCallback([&hist](const WindowRecord &w) {
        hist.record(w.counters[0].delta);
    });

    std::vector<std::uint64_t> samples_at_export;
    sampler.addExporter([&](const WindowRecord &) {
        samples_at_export.push_back(hist.samples());
    });

    bank.bump(h, 3);
    sampler.advanceTo(10);
    bank.bump(h, 2);
    sampler.advanceTo(20);
    ASSERT_EQ(samples_at_export.size(), 2u);
    EXPECT_EQ(samples_at_export[0], 1u);
    EXPECT_EQ(samples_at_export[1], 2u);
    EXPECT_EQ(hist.count(3), 1u);
    EXPECT_EQ(hist.count(2), 1u);
}

TEST(SamplerTest, FinishEmitsTrailingPartialWindowOnce)
{
    Sampler sampler(100);
    CapturingExporter sink(sampler);
    CounterBank bank;
    auto h = bank.add("c");
    sampler.addBank("", bank);

    bank.bump(h, 4);
    sampler.advanceTo(100);
    bank.bump(h, 6);
    sampler.finish(140); // partial window [100,140)
    ASSERT_EQ(sink.windows.size(), 2u);
    EXPECT_EQ(sink.windows[1].begin, 100u);
    EXPECT_EQ(sink.windows[1].end, 140u);
    EXPECT_EQ(sink.windows[1].deltas[0], 6u);

    sampler.finish(500); // idempotent
    EXPECT_EQ(sink.windows.size(), 2u);
    EXPECT_EQ(sampler.windowsEmitted(), 2u);
}

TEST(SamplerTest, ResyncSkipsAheadAndRebaselines)
{
    // Attaching mid-run (console monitor, post-warmup measurement
    // pass): resync must drop pre-attach counter movement and must not
    // emit the empty windows between cycle 0 and now.
    Sampler sampler(100);
    CapturingExporter sink(sampler);
    CounterBank bank;
    auto h = bank.add("c");
    sampler.addBank("", bank);

    bank.bump(h, 50); // movement before the measured run begins
    sampler.resync(730);
    sampler.advanceTo(800); // closes [700,800) only
    ASSERT_EQ(sink.windows.size(), 1u);
    EXPECT_EQ(sink.windows[0].begin, 700u);
    EXPECT_EQ(sink.windows[0].end, 800u);
    EXPECT_EQ(sink.windows[0].deltas[0], 0u);

    bank.bump(h, 3);
    sampler.advanceTo(900);
    ASSERT_EQ(sink.windows.size(), 2u);
    EXPECT_EQ(sink.windows[1].deltas[0], 3u);
    EXPECT_EQ(sink.windows[1].totals[0], 3u);
}

TEST(SamplerTest, FinishExactlyOnBoundaryEmitsNoEmptyTail)
{
    Sampler sampler(50);
    CapturingExporter sink(sampler);
    sampler.finish(100); // [0,50) and [50,100), no zero-length tail
    EXPECT_EQ(sink.windows.size(), 2u);
}

} // namespace
} // namespace memories::telemetry
