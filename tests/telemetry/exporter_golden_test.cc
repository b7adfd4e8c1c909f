/**
 * @file
 * Golden tests for the telemetry renderers: exact expected bytes for a
 * small crafted run, plus the byte-stability contract — two
 * identically-seeded runs must render identically in every format.
 */

#include "telemetry/exporter.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/counters.hh"
#include "telemetry/histogram.hh"
#include "telemetry/sampler.hh"

namespace memories::telemetry
{
namespace
{

/** One deterministic miniature run rendered in both formats. */
struct RunOutput
{
    std::string jsonl;
    std::string prometheus; //!< every window's exposition, in order
};

RunOutput
runScenario()
{
    RunOutput out;
    Sampler sampler(100);
    sampler.addExporter([&out](const WindowRecord &w) {
        out.jsonl += jsonLine(w);
        out.prometheus += prometheusText(w);
    });

    CounterBank bank;
    auto reads = bank.add("reads");
    auto writes = bank.add("writes");
    sampler.addBank("node0", bank);

    double util = 0.0;
    sampler.addGauge("bus.utilization", [&util] { return util; });

    Histogram hist("occupancy", 4, 2);
    sampler.addHistogram(hist);

    bank.bump(reads, 12);
    bank.bump(writes, 3);
    hist.record(1);
    hist.record(5);
    util = 0.125;
    sampler.advanceTo(100);

    bank.bump(reads, 8);
    hist.record(9);
    util = 0.5;
    sampler.finish(150);

    return out;
}

TEST(ExporterGoldenTest, JsonLinesExactBytes)
{
    const std::string expected =
        "{\"window\":0,\"begin_cycle\":0,\"end_cycle\":100,"
        "\"counters\":{"
        "\"node0.reads\":{\"delta\":12,\"total\":12},"
        "\"node0.writes\":{\"delta\":3,\"total\":3}},"
        "\"gauges\":{\"bus.utilization\":0.125},"
        "\"histograms\":{\"occupancy\":{\"bucket_width\":4,"
        "\"counts\":[1,1],\"overflow\":0,\"samples\":2,\"sum\":6,"
        "\"max\":5}}}\n"
        "{\"window\":1,\"begin_cycle\":100,\"end_cycle\":150,"
        "\"counters\":{"
        "\"node0.reads\":{\"delta\":8,\"total\":20},"
        "\"node0.writes\":{\"delta\":0,\"total\":3}},"
        "\"gauges\":{\"bus.utilization\":0.5},"
        "\"histograms\":{\"occupancy\":{\"bucket_width\":4,"
        "\"counts\":[1,1],\"overflow\":1,\"samples\":3,\"sum\":15,"
        "\"max\":9}}}\n";
    EXPECT_EQ(runScenario().jsonl, expected);
}

TEST(ExporterGoldenTest, IdenticalRunsAreByteIdentical)
{
    const RunOutput a = runScenario();
    const RunOutput b = runScenario();
    EXPECT_EQ(a.jsonl, b.jsonl);
    EXPECT_EQ(a.prometheus, b.prometheus);
}

TEST(ExporterGoldenTest, PrometheusExposition)
{
    std::vector<std::string> expositions;
    Sampler sampler(100);
    sampler.addExporter([&expositions](const WindowRecord &w) {
        expositions.push_back(prometheusText(w));
    });
    CounterBank bank;
    auto h = bank.add("tenures");
    sampler.addBank("bus", bank);
    sampler.addGauge("util", [] { return 0.25; });
    Histogram hist("lat", 10, 2);
    sampler.addHistogram(hist);

    bank.bump(h, 5);
    hist.record(3);
    hist.record(25);
    sampler.advanceTo(100);

    const std::string expected =
        "# MemorIES telemetry, window 0, bus cycles [0,100)\n"
        "# TYPE memories_window gauge\n"
        "memories_window 0\n"
        "# TYPE memories_counter_total counter\n"
        "memories_counter_total{name=\"bus.tenures\"} 5\n"
        "# TYPE memories_gauge gauge\n"
        "memories_gauge{name=\"util\"} 0.25\n"
        "# TYPE memories_histogram histogram\n"
        "memories_histogram_bucket{name=\"lat\",le=\"10\"} 1\n"
        "memories_histogram_bucket{name=\"lat\",le=\"20\"} 1\n"
        "memories_histogram_bucket{name=\"lat\",le=\"+Inf\"} 2\n"
        "memories_histogram_sum{name=\"lat\"} 28\n"
        "memories_histogram_count{name=\"lat\"} 2\n";
    ASSERT_EQ(expositions.size(), 1u);
    EXPECT_EQ(expositions[0], expected);
}

TEST(ExporterGoldenTest, FormatMetricValueIsDeterministic)
{
    EXPECT_EQ(formatMetricValue(0.0), "0");
    EXPECT_EQ(formatMetricValue(42.0), "42");
    EXPECT_EQ(formatMetricValue(-3.0), "-3");
    EXPECT_EQ(formatMetricValue(0.125), "0.125");
    EXPECT_EQ(formatMetricValue(1.0 / 3.0), "0.3333333333");
}

} // namespace
} // namespace memories::telemetry
