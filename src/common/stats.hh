/**
 * @file
 * Aggregate statistics used when post-processing counter dumps.
 *
 * The board itself only counts events; ratios and interval time-series
 * (the miss-ratio-over-hours profile of Figure 10) are computed
 * console-side. These helpers live in common so benches, tests and
 * examples share one implementation. Histograms are
 * telemetry::Histogram.
 */

#ifndef MEMORIES_COMMON_STATS_HH
#define MEMORIES_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace memories
{

/** Safe ratio: returns 0 when the denominator is 0. */
double ratio(std::uint64_t numer, std::uint64_t denom);

/**
 * Interval time-series of a ratio: record (numer, denom) deltas per fixed
 * interval and emit the per-interval ratio sequence. This is exactly how
 * the Figure 10 miss-ratio profile is produced from the board's counters:
 * the console polls cumulative counters every interval and differences
 * them.
 */
class IntervalSeries
{
  public:
    /** @param interval_refs References per sampling interval. */
    explicit IntervalSeries(std::uint64_t interval_refs);

    /** Feed one observation: @p denom_inc events of which @p numer_inc hit. */
    void record(std::uint64_t numer_inc, std::uint64_t denom_inc);

    /** Close any partial interval (call once at end of run). */
    void finish();

    /** Per-interval ratio values in order. */
    const std::vector<double> &points() const { return points_; }

    std::uint64_t intervalRefs() const { return interval_; }

  private:
    std::uint64_t interval_;
    std::uint64_t numer_ = 0;
    std::uint64_t denom_ = 0;
    std::vector<double> points_;
};

/** Render a small ASCII sparkline of a series (console visualisation). */
std::string sparkline(const std::vector<double> &points);

} // namespace memories

#endif // MEMORIES_COMMON_STATS_HH
