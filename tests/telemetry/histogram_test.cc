#include "telemetry/histogram.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace memories::telemetry
{
namespace
{

TEST(HistogramTest, ConstructionRejectsDegenerateShapes)
{
    EXPECT_THROW(Histogram("h", 0, 4), FatalError);
    EXPECT_THROW(Histogram("h", 16, 0), FatalError);
}

TEST(HistogramTest, BucketBoundariesAreHalfOpen)
{
    Histogram h("occupancy", 10, 3); // [0,10) [10,20) [20,30) + overflow
    h.record(0);
    h.record(9);
    h.record(10);
    h.record(29);
    h.record(30); // first value past the last bound
    h.record(1000);

    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.samples(), 6u);
}

TEST(HistogramTest, SumMaxAndMeanTrackObservations)
{
    Histogram h("latency", 5, 4);
    h.record(2);
    h.record(4);
    h.record(12);
    EXPECT_EQ(h.sum(), 18u);
    EXPECT_EQ(h.maxSeen(), 12u);
    EXPECT_DOUBLE_EQ(h.mean(), 6.0);
}

TEST(HistogramTest, EmptyHistogramHasZeroMean)
{
    Histogram h("empty", 1, 1);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.maxSeen(), 0u);
}

TEST(HistogramTest, ClearForgetsEverything)
{
    Histogram h("h", 2, 2);
    h.record(1);
    h.record(100);
    h.clear();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_EQ(h.overflow(), 0u);
    EXPECT_EQ(h.count(0), 0u);
    EXPECT_EQ(h.maxSeen(), 0u);
}

TEST(HistogramBoundaryTest, LowerEdgeInclusiveUpperExclusive)
{
    Histogram h("h", 1, 10);
    h.record(0);
    h.record(9);
    h.record(10);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(9), 1u);
    EXPECT_EQ(h.overflow(), 1u);
}

TEST(HistogramBoundaryTest, SingleBucketCatchesRange)
{
    Histogram h("h", 4, 1);
    h.record(0);
    h.record(3);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(HistogramBoundaryTest, EmptyHistogramStats)
{
    Histogram h("h", 1, 4);
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

} // namespace
} // namespace memories::telemetry
