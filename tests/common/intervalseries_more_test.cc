/**
 * @file
 * Additional IntervalSeries behaviour pins: chunked recording (how the
 * benches feed counter deltas).
 */

#include "common/stats.hh"

#include <gtest/gtest.h>

namespace memories
{
namespace
{

TEST(IntervalSeriesChunkTest, OversizedChunkClosesOneInterval)
{
    // A single record() larger than the interval closes exactly one
    // point covering the whole chunk - the documented console-side
    // semantics when polling cumulative counters coarsely.
    IntervalSeries series(10);
    series.record(5, 25);
    EXPECT_EQ(series.points().size(), 1u);
    EXPECT_DOUBLE_EQ(series.points()[0], 0.2);
}

TEST(IntervalSeriesChunkTest, ExactBoundaryClosesInterval)
{
    IntervalSeries series(10);
    series.record(2, 10);
    ASSERT_EQ(series.points().size(), 1u);
    EXPECT_DOUBLE_EQ(series.points()[0], 0.2);
    series.finish();
    EXPECT_EQ(series.points().size(), 1u); // nothing pending
}

TEST(IntervalSeriesChunkTest, AccumulatesAcrossSmallRecords)
{
    IntervalSeries series(100);
    for (int i = 0; i < 99; ++i)
        series.record(0, 1);
    EXPECT_TRUE(series.points().empty());
    series.record(1, 1);
    ASSERT_EQ(series.points().size(), 1u);
    EXPECT_DOUBLE_EQ(series.points()[0], 0.01);
}

} // namespace
} // namespace memories
