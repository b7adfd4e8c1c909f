#include "telemetry/sampler.hh"

#include "common/logging.hh"

namespace memories::telemetry
{

Sampler::Sampler(Cycle window_cycles)
    : windowCycles_(window_cycles), windowEnd_(window_cycles)
{
    if (window_cycles == 0)
        fatal("sampler window must be at least one bus cycle");
}

void
Sampler::addBank(std::string_view prefix, const CounterBank &bank)
{
    counters_.reserve(counters_.size() + bank.size());
    bank.snapshot([&](const CounterSample &s) {
        CounterSource src;
        src.name = prefix.empty()
                       ? std::string(s.name)
                       : std::string(prefix) + "." + std::string(s.name);
        src.read = [&bank, h = s.handle] { return bank.value(h); };
        src.mask = Counter40::mask;
        src.prev = s.value;
        counters_.push_back(std::move(src));
    });
}

void
Sampler::addValue(std::string name, std::function<std::uint64_t()> read)
{
    CounterSource src;
    src.name = std::move(name);
    src.prev = read();
    src.read = std::move(read);
    src.mask = ~std::uint64_t{0};
    counters_.push_back(std::move(src));
}

void
Sampler::addGauge(std::string name, std::function<double()> read)
{
    gauges_.push_back(GaugeSource{std::move(name), std::move(read)});
}

void
Sampler::addHistogram(const Histogram &histogram)
{
    histograms_.push_back(&histogram);
}

void
Sampler::addWindowCallback(std::function<void(const WindowRecord &)> fn)
{
    callbacks_.push_back(std::move(fn));
}

void
Sampler::addExporter(std::function<void(const WindowRecord &)> fn)
{
    exporters_.push_back(std::move(fn));
}

void
Sampler::resync(Cycle now)
{
    for (CounterSource &src : counters_)
        src.prev = src.read();
    windowBegin_ = (now / windowCycles_) * windowCycles_;
    windowEnd_ = windowBegin_ + windowCycles_;
}

void
Sampler::roll(Cycle now)
{
    while (now >= windowEnd_) {
        emitWindow(windowBegin_, windowEnd_);
        windowBegin_ = windowEnd_;
        windowEnd_ += windowCycles_;
    }
}

void
Sampler::finish(Cycle now)
{
    if (finished_)
        return;
    advanceTo(now);
    if (now > windowBegin_)
        emitWindow(windowBegin_, now);
    finished_ = true;
}

void
Sampler::emitWindow(Cycle begin, Cycle end)
{
    WindowRecord w;
    w.index = emitted_++;
    w.beginCycle = begin;
    w.endCycle = end;

    w.counters.reserve(counters_.size());
    for (auto &src : counters_) {
        const std::uint64_t cur = src.read();
        const std::uint64_t delta = (cur - src.prev) & src.mask;
        src.prev = cur;
        src.total += delta;
        w.counters.push_back(
            WindowRecord::CounterPoint{&src.name, delta, src.total});
    }
    w.gauges.reserve(gauges_.size());
    for (const auto &g : gauges_)
        w.gauges.push_back(WindowRecord::GaugePoint{&g.name, g.read()});

    // Callbacks may fold this window's deltas into registered
    // histograms, so they run before the histogram state is exported.
    for (const auto &fn : callbacks_)
        fn(w);
    w.histograms = histograms_;

    for (const auto &fn : exporters_)
        fn(w);
}

} // namespace memories::telemetry
