#include "ies/busprofiler.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memories::ies
{

BusProfiler::BusProfiler(const BusProfilerConfig &config)
    : config_(config)
{
    if (config.windowCycles == 0)
        fatal("profiler window must be nonzero");
}

void
BusProfiler::plugInto(bus::Bus6xx &bus)
{
    bus.attach(this);
    bus.attachObserver(this);
}

void
BusProfiler::unplug(bus::Bus6xx &bus)
{
    bus.detach(this);
    bus.detachObserver(this);
}

void
BusProfiler::observeResult(const bus::BusTransaction &txn,
                           bus::SnoopResponse)
{
    // Close windows that elapsed before this tenure.
    while (txn.cycle >= windowStart_ + config_.windowCycles) {
        windows_.push_back(static_cast<double>(windowTenures_) /
                           static_cast<double>(config_.windowCycles));
        windowStart_ += config_.windowCycles;
        windowTenures_ = 0;
    }
    ++windowTenures_;

    // Burst tracking: consecutive tenures with small gaps.
    if (sawAny_ &&
        txn.cycle - lastTenureCycle_ > config_.burstGapCycles) {
        burstHist_.record(burstLength_);
        burstLength_ = 0;
    }
    ++burstLength_;
    lastTenureCycle_ = txn.cycle;
    sawAny_ = true;

    ++tenures_;
    ++opCounts_[static_cast<std::size_t>(txn.op)];
    if (txn.cpu < maxHostCpus)
        ++cpuCounts_[txn.cpu];
}

void
BusProfiler::finish()
{
    if (windowTenures_ > 0) {
        windows_.push_back(static_cast<double>(windowTenures_) /
                           static_cast<double>(config_.windowCycles));
        windowTenures_ = 0;
    }
    if (burstLength_ > 0) {
        burstHist_.record(burstLength_);
        burstLength_ = 0;
    }
}

double
BusProfiler::peakUtilization() const
{
    return windows_.empty()
               ? 0.0
               : *std::max_element(windows_.begin(), windows_.end());
}

double
BusProfiler::meanUtilization() const
{
    if (windows_.empty())
        return 0.0;
    double sum = 0.0;
    for (double w : windows_)
        sum += w;
    return sum / static_cast<double>(windows_.size());
}

void
BusProfiler::attachTelemetry(telemetry::Sampler &sampler,
                             const std::string &prefix)
{
    sampler.addValue(prefix + ".tenures", [this] { return tenures_; });
    sampler.addGauge(prefix + ".mean_utilization",
                     [this] { return meanUtilization(); });
    sampler.addGauge(prefix + ".peak_utilization",
                     [this] { return peakUtilization(); });

    // Distribution of per-profiler-window load, fed as each profiler
    // window completes (the profiler's own windowCycles cadence, which
    // is independent of the sampler's).
    if (!windowUtilHist_) {
        windowUtilHist_ = std::make_unique<telemetry::Histogram>(
            prefix + ".window_utilization_percent", 5, 20);
    }
    sampler.addHistogram(*windowUtilHist_);
    sampler.addWindowCallback(
        [this, consumed = windows_.size()](
            const telemetry::WindowRecord &) mutable {
            for (; consumed < windows_.size(); ++consumed)
                windowUtilHist_->record(static_cast<std::uint64_t>(
                    windows_[consumed] * 100.0));
        });
}

void
BusProfiler::clear()
{
    windows_.clear();
    windowStart_ = 0;
    windowTenures_ = 0;
    burstHist_.clear();
    lastTenureCycle_ = 0;
    burstLength_ = 0;
    opCounts_.fill(0);
    cpuCounts_.fill(0);
    tenures_ = 0;
    sawAny_ = false;
}

} // namespace memories::ies
