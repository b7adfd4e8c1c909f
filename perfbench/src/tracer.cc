#include "tracer.hh"

#include "bench.hh"

#include <cstdio>
#include <fstream>

namespace perfbench
{

const char *
spanName(Span s)
{
    switch (s) {
      case Span::Setup: return "bench.setup";
      case Span::Timed: return "bench.timed";
      case Span::WorkloadNext: return "workload.next";
      case Span::HostRun: return "host.run";
      case Span::IesSnoop: return "ies.snoop";
      case Span::IesObserve: return "ies.observeResult";
      case Span::IesFeedBatch: return "ies.feedBatch";
      case Span::IesDrain: return "ies.drainAll";
      case Span::ServiceStart: return "service.daemon_start";
      case Span::ServiceSession: return "service.session_setup";
      case Span::ServiceFeedAll: return "service.feedAll";
      case Span::ServiceDrain: return "service.drain";
      case Span::ServiceEmulate: return "service.emulate";
      case Span::ServiceCodec: return "service.codec";
      case Span::Count: break;
    }
    return "?";
}

bool
inTimedRegion(Span s)
{
    switch (s) {
      case Span::Setup:
      case Span::ServiceStart:
      case Span::ServiceSession:
      case Span::ServiceEmulate:
      case Span::ServiceCodec:
        return false;
      default:
        return true;
    }
}

TraceCost
calibrate()
{
    // The first batch overflows the record cap so the measured batches
    // run the same branch hot spans run in a long traced repetition.
    constexpr int batches = 9;
    constexpr std::uint32_t perBatch = 20000;
    std::vector<double> empty, added;
    Tracer t(TraceCost{}, Clock::now(), 0);
    for (std::uint32_t i = 0; i < Tracer::spanCap; ++i) {
        t.begin(Span::Setup);
        t.end();
    }
    for (int b = 0; b < batches; ++b) {
        const Tracer::Aggregate before = t.aggregate(Span::Setup);
        const auto t0 = Clock::now();
        for (std::uint32_t i = 0; i < perBatch; ++i) {
            t.begin(Span::Setup);
            t.end();
        }
        const double outer =
            std::chrono::duration<double, std::nano>(Clock::now() - t0)
                .count();
        const Tracer::Aggregate after = t.aggregate(Span::Setup);
        empty.push_back((after.inclusiveNs - before.inclusiveNs) /
                        perBatch);
        added.push_back(outer / perBatch);
    }
    return TraceCost{median(empty), median(added)};
}

Tracer::Tracer(TraceCost cost, Clock::time_point epoch,
               std::uint32_t thread)
    : cost_(cost), epoch_(epoch), thread_(thread)
{
    stack_.reserve(16);
}

void
Tracer::begin(Span name)
{
    Open open;
    open.name = name;
    if (records_.size() < spanCap) {
        open.record = static_cast<std::uint32_t>(records_.size());
        records_.push_back(Record{
            stack_.empty() ? noParent : stack_.back().record, name, 0, 0});
    } else {
        ++dropped_;
    }
    stack_.push_back(open);
    stack_.back().start = Clock::now();
}

void
Tracer::end()
{
    const auto stop = Clock::now();
    const Open open = stack_.back();
    stack_.pop_back();
    const double measured =
        std::chrono::duration<double, std::nano>(stop - open.start)
            .count();
    Aggregate &a = agg_[static_cast<std::size_t>(open.name)];
    ++a.calls;
    a.inclusiveNs += measured - cost_.emptyNs;
    a.selfNs += measured - cost_.emptyNs - open.childMeasuredNs -
                open.children * (cost_.addedNs - cost_.emptyNs);
    if (open.record != noParent) {
        Record &r = records_[open.record];
        r.startNs = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(open.start - epoch_)
                .count());
        r.endNs = static_cast<std::uint64_t>(
            std::chrono::duration<double, std::nano>(stop - epoch_)
                .count());
    }
    if (!stack_.empty()) {
        stack_.back().childMeasuredNs += measured;
        ++stack_.back().children;
    }
}

void
Tracer::merge(const Tracer &other)
{
    for (std::size_t i = 0; i < agg_.size(); ++i) {
        agg_[i].calls += other.agg_[i].calls;
        agg_[i].inclusiveNs += other.agg_[i].inclusiveNs;
        agg_[i].selfNs += other.agg_[i].selfNs;
    }
    dropped_ += other.dropped_;
}

bool
writeSpans(const std::string &path, std::uint32_t run_id,
           const std::vector<const Tracer *> &tracers)
{
    std::ofstream out(path);
    if (!out)
        return false;
    char line[256];
    for (const Tracer *t : tracers) {
        const auto &recs = t->records();
        for (std::size_t i = 0; i < recs.size(); ++i) {
            const Tracer::Record &r = recs[i];
            std::snprintf(
                line, sizeof line,
                "{\"run\": %u, \"thread\": %u, \"id\": %zu, \"parent\": "
                "%lld, \"name\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                "%llu}\n",
                run_id, t->thread(), i,
                r.parent == Tracer::noParent
                    ? -1LL
                    : static_cast<long long>(r.parent),
                spanName(r.name),
                static_cast<unsigned long long>(r.startNs),
                static_cast<unsigned long long>(r.endNs));
            out << line;
        }
    }
    out.flush();
    return static_cast<bool>(out);
}

void
describeSpans(const Tracer &merged, double timed_ns,
              std::vector<std::string> &lines)
{
    char line[200];
    std::snprintf(line, sizeof line, "%-22s %12s %14s %14s %8s", "span",
                  "calls", "inclusive ms", "self ms", "self %");
    lines.push_back(line);
    for (std::size_t i = 0; i < static_cast<std::size_t>(Span::Count);
         ++i) {
        const auto s = static_cast<Span>(i);
        const Tracer::Aggregate &a = merged.aggregate(s);
        if (a.calls == 0)
            continue;
        std::snprintf(line, sizeof line, "%-22s %12llu %14.3f %14.3f",
                      spanName(s), static_cast<unsigned long long>(a.calls),
                      a.inclusiveNs / 1e6, a.selfNs / 1e6);
        std::string text = line;
        if (inTimedRegion(s) && timed_ns > 0) {
            std::snprintf(line, sizeof line, " %7.1f%%",
                          100.0 * a.selfNs / timed_ns);
            text += line;
        }
        lines.push_back(text);
    }
}

} // namespace perfbench
