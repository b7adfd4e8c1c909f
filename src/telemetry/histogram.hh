/**
 * @file
 * Fixed-bucket occupancy/latency histogram for the telemetry layer.
 *
 * The board's counter fabric counts scalar events; distributions (how
 * deep did the transaction buffers run, how long between snoop and
 * commit, how loaded was the bus per window) are what an operator
 * watching the live console actually asks about. This histogram is
 * deliberately hardware-shaped: uniform integer-width buckets fixed at
 * construction plus one overflow bin, so recording is a shift-free
 * divide and the renderers can emit bucket bounds without runtime
 * negotiation. Values are in whatever integer unit the caller counts
 * (buffer entries, bus cycles, utilization percent).
 */

#ifndef MEMORIES_TELEMETRY_HISTOGRAM_HH
#define MEMORIES_TELEMETRY_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace memories::telemetry
{

/** Cumulative fixed-bucket histogram over [0, bucketWidth*buckets). */
class Histogram
{
  public:
    /**
     * @param name         Metric name the exporters publish under.
     * @param bucket_width Width of each bucket in value units (>0).
     * @param buckets      Number of uniform buckets (>0); values at or
     *                     beyond bucket_width*buckets land in the
     *                     overflow bin.
     */
    Histogram(std::string name, std::uint64_t bucket_width,
              std::size_t buckets);

    /** Record one observation. */
    void record(std::uint64_t value)
    {
        const std::size_t b =
            static_cast<std::size_t>(value / bucketWidth_);
        if (b < counts_.size())
            ++counts_[b];
        else
            ++overflow_;
        ++samples_;
        sum_ += value;
        if (value > maxSeen_)
            maxSeen_ = value;
    }

    const std::string &name() const { return name_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }
    std::size_t buckets() const { return counts_.size(); }

    /** Count in bucket @p i, covering [i*width, (i+1)*width). */
    std::uint64_t count(std::size_t i) const { return counts_[i]; }

    /** Observations at or beyond the last bucket bound. */
    std::uint64_t overflow() const { return overflow_; }

    std::uint64_t samples() const { return samples_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t maxSeen() const { return maxSeen_; }

    /** Mean observation (0 when empty). */
    double mean() const
    {
        return samples_ == 0 ? 0.0
                             : static_cast<double>(sum_) /
                                   static_cast<double>(samples_);
    }

    /** Forget all observations (console "clear counters"). */
    void clear();

  private:
    std::string name_;
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t overflow_ = 0;
    std::uint64_t samples_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t maxSeen_ = 0;
};

} // namespace memories::telemetry

#endif // MEMORIES_TELEMETRY_HISTOGRAM_HH
