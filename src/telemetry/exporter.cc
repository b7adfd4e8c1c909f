#include "telemetry/exporter.hh"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace memories::telemetry
{

namespace
{

/** Escape a metric name for a JSON string or Prometheus label value. */
std::string
escapeName(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

std::string
formatMetricValue(double value)
{
    // Integral values print as integers so counters exported through a
    // gauge never grow a spurious ".0"; everything else uses a fixed
    // %.10g, which round-trips identically for identical doubles.
    if (std::isfinite(value) && value == std::floor(value) &&
        std::fabs(value) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(value));
        return buf;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.10g", value);
    return buf;
}

std::string
jsonLine(const WindowRecord &w)
{
    std::ostringstream os;
    os << "{\"window\":" << w.index << ",\"begin_cycle\":" << w.beginCycle
       << ",\"end_cycle\":" << w.endCycle;
    os << ",\"counters\":{";
    for (std::size_t i = 0; i < w.counters.size(); ++i) {
        const auto &c = w.counters[i];
        os << (i ? "," : "") << '"' << escapeName(*c.name)
           << "\":{\"delta\":" << c.delta << ",\"total\":" << c.total
           << '}';
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < w.gauges.size(); ++i) {
        const auto &g = w.gauges[i];
        os << (i ? "," : "") << '"' << escapeName(*g.name)
           << "\":" << formatMetricValue(g.value);
    }
    os << "},\"histograms\":{";
    for (std::size_t i = 0; i < w.histograms.size(); ++i) {
        const Histogram &h = *w.histograms[i];
        os << (i ? "," : "") << '"' << escapeName(h.name())
           << "\":{\"bucket_width\":" << h.bucketWidth()
           << ",\"counts\":[";
        for (std::size_t b = 0; b < h.buckets(); ++b)
            os << (b ? "," : "") << h.count(b);
        os << "],\"overflow\":" << h.overflow()
           << ",\"samples\":" << h.samples() << ",\"sum\":" << h.sum()
           << ",\"max\":" << h.maxSeen() << '}';
    }
    os << "}}\n";
    return os.str();
}

std::string
prometheusText(const WindowRecord &w)
{
    std::ostringstream os;
    os << "# MemorIES telemetry, window " << w.index << ", bus cycles ["
       << w.beginCycle << "," << w.endCycle << ")\n";
    os << "# TYPE memories_window gauge\n"
       << "memories_window " << w.index << "\n";
    os << "# TYPE memories_counter_total counter\n";
    for (const auto &c : w.counters) {
        os << "memories_counter_total{name=\"" << escapeName(*c.name)
           << "\"} " << c.total << "\n";
    }
    os << "# TYPE memories_gauge gauge\n";
    for (const auto &g : w.gauges) {
        os << "memories_gauge{name=\"" << escapeName(*g.name) << "\"} "
           << formatMetricValue(g.value) << "\n";
    }
    os << "# TYPE memories_histogram histogram\n";
    for (const Histogram *h : w.histograms) {
        const std::string name = escapeName(h->name());
        std::uint64_t cumulative = 0;
        for (std::size_t b = 0; b < h->buckets(); ++b) {
            cumulative += h->count(b);
            os << "memories_histogram_bucket{name=\"" << name
               << "\",le=\"" << (h->bucketWidth() * (b + 1)) << "\"} "
               << cumulative << "\n";
        }
        os << "memories_histogram_bucket{name=\"" << name
           << "\",le=\"+Inf\"} " << h->samples() << "\n";
        os << "memories_histogram_sum{name=\"" << name << "\"} "
           << h->sum() << "\n";
        os << "memories_histogram_count{name=\"" << name << "\"} "
           << h->samples() << "\n";
    }
    return os.str();
}

} // namespace memories::telemetry
