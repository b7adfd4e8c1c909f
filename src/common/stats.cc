#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memories
{

double
ratio(std::uint64_t numer, std::uint64_t denom)
{
    return denom == 0 ? 0.0
                      : static_cast<double>(numer) /
                            static_cast<double>(denom);
}

IntervalSeries::IntervalSeries(std::uint64_t interval_refs)
    : interval_(interval_refs)
{
    if (interval_refs == 0)
        fatal("IntervalSeries interval must be nonzero");
}

void
IntervalSeries::record(std::uint64_t numer_inc, std::uint64_t denom_inc)
{
    numer_ += numer_inc;
    denom_ += denom_inc;
    while (denom_ >= interval_) {
        // Close an interval. Attribute hits proportionally when an
        // observation straddles the boundary; in practice increments are
        // single references so this is exact.
        points_.push_back(ratio(numer_, denom_));
        numer_ = 0;
        denom_ = 0;
    }
}

void
IntervalSeries::finish()
{
    if (denom_ > 0) {
        points_.push_back(ratio(numer_, denom_));
        numer_ = 0;
        denom_ = 0;
    }
}

std::string
sparkline(const std::vector<double> &points)
{
    static const char glyphs[] = {'_', '.', ':', '-', '=', '+', '*', '#'};
    if (points.empty())
        return "";
    double lo = *std::min_element(points.begin(), points.end());
    double hi = *std::max_element(points.begin(), points.end());
    double span = hi - lo;
    std::string out;
    out.reserve(points.size());
    for (double p : points) {
        std::size_t level =
            span <= 0.0 ? 0
                        : static_cast<std::size_t>((p - lo) / span * 7.0);
        if (level > 7)
            level = 7;
        out.push_back(glyphs[level]);
    }
    return out;
}

} // namespace memories
