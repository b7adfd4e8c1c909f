#include "common/stats.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace memories
{
namespace
{

TEST(RatioTest, ZeroDenominatorIsZero)
{
    EXPECT_EQ(ratio(5, 0), 0.0);
}

TEST(RatioTest, ComputesFraction)
{
    EXPECT_DOUBLE_EQ(ratio(1, 4), 0.25);
}

TEST(IntervalSeriesTest, RejectsZeroInterval)
{
    EXPECT_THROW(IntervalSeries(0), FatalError);
}

TEST(IntervalSeriesTest, EmitsPerIntervalRatios)
{
    IntervalSeries series(10);
    for (int i = 0; i < 10; ++i)
        series.record(1, 1); // all hits
    for (int i = 0; i < 10; ++i)
        series.record(0, 1); // all misses
    ASSERT_EQ(series.points().size(), 2u);
    EXPECT_DOUBLE_EQ(series.points()[0], 1.0);
    EXPECT_DOUBLE_EQ(series.points()[1], 0.0);
}

TEST(IntervalSeriesTest, FinishFlushesPartial)
{
    IntervalSeries series(100);
    series.record(3, 6);
    series.finish();
    ASSERT_EQ(series.points().size(), 1u);
    EXPECT_DOUBLE_EQ(series.points()[0], 0.5);
}

TEST(IntervalSeriesTest, FinishOnEmptyAddsNothing)
{
    IntervalSeries series(10);
    series.finish();
    EXPECT_TRUE(series.points().empty());
}

TEST(SparklineTest, EmptyInput)
{
    EXPECT_EQ(sparkline({}), "");
}

TEST(SparklineTest, FlatSeriesRendersLow)
{
    const auto s = sparkline({1.0, 1.0, 1.0});
    EXPECT_EQ(s, "___");
}

TEST(SparklineTest, RisingSeriesEndsHigh)
{
    const auto s = sparkline({0.0, 0.5, 1.0});
    EXPECT_EQ(s.size(), 3u);
    EXPECT_EQ(s.front(), '_');
    EXPECT_EQ(s.back(), '#');
}

} // namespace
} // namespace memories
