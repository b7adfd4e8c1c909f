/**
 * @file
 * Renderer and exporter edge cases the golden tests' well-formed
 * fixtures never reach: metric names that need escaping in quoted
 * contexts (JSON strings, Prometheus label values), and the
 * zero-window flush — a sampler finished before any window closes
 * calls no exporter, so its owner writes nothing.
 */

#include "telemetry/exporter.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "telemetry/sampler.hh"

namespace memories::telemetry
{
namespace
{

/** One hand-built window whose metric names need escaping. */
WindowRecord
hostileWindow(const std::string &counter_name,
              const std::string &gauge_name)
{
    WindowRecord w;
    w.index = 0;
    w.beginCycle = 0;
    w.endCycle = 100;
    w.counters.push_back({&counter_name, 7, 7});
    w.gauges.push_back({&gauge_name, 1.5});
    return w;
}

TEST(ExporterEdgeTest, PrometheusEscapesLabelValues)
{
    const std::string counter = "quote\"back\\slash";
    const std::string gauge = "new\nline";
    const std::string text = prometheusText(hostileWindow(counter, gauge));
    // Inside a label value, `"` and `\` gain a backslash and a raw
    // newline becomes the two characters `\n` — otherwise the line
    // protocol is torn mid-sample.
    EXPECT_NE(
        text.find(
            "memories_counter_total{name=\"quote\\\"back\\\\slash\"}"),
        std::string::npos)
        << text;
    EXPECT_NE(text.find("memories_gauge{name=\"new\\nline\"}"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("new\nline"), std::string::npos) << text;
}

TEST(ExporterEdgeTest, JsonLinesEscapesMetricNames)
{
    const std::string counter = "quote\"back\\slash";
    const std::string gauge = "new\nline";
    const std::string text = jsonLine(hostileWindow(counter, gauge));
    EXPECT_NE(text.find("\"quote\\\"back\\\\slash\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"new\\nline\""), std::string::npos) << text;
    // Exactly one record, one line.
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 1);
}

TEST(ExporterEdgeTest, ZeroWindowFinishIsByteStableForAllExporters)
{
    // A run can legitimately end before the first window closes
    // (short replay, tiny trace). Its finish must call no exporter, so
    // an owner writes nothing — no partial line, no rewritten
    // exposition — and two such runs diff clean.
    CounterBank bank;
    bank.add("ticks");
    Sampler sampler(1000);
    std::size_t calls = 0;
    sampler.addExporter([&calls](const WindowRecord &) { ++calls; });
    sampler.addBank("edge", bank);

    // Finish at cycle 0: zero cycles elapsed, zero windows closed.
    sampler.finish(0);
    EXPECT_EQ(sampler.windowsEmitted(), 0u);
    EXPECT_EQ(calls, 0u);
}

} // namespace
} // namespace memories::telemetry
