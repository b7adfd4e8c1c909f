/**
 * @file
 * Bus-profiling firmware personality.
 *
 * Another "reprogram the FPGAs" use of the board (paper section 2.3
 * lists several): instead of emulating caches, profile the bus itself
 * — utilization over time, burst-length distribution, per-command and
 * per-CPU load. This is the measurement behind section 3.3's "maximum
 * bus utilization with 8 CPUs always varied between 2% to 20%", which
 * justified the 42% SDRAM design point.
 */

#ifndef MEMORIES_IES_BUSPROFILER_HH
#define MEMORIES_IES_BUSPROFILER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"
#include "telemetry/sampler.hh"

namespace memories::ies
{

/** Configuration of the profiler personality. */
struct BusProfilerConfig
{
    /** Cycles per utilization sample window. */
    Cycle windowCycles = 100'000;
    /** A burst ends after this many idle cycles. */
    Cycle burstGapCycles = 8;
};

/** Passive bus-utilization profiler. */
class BusProfiler : public bus::BusSnooper, public bus::BusObserver
{
  public:
    explicit BusProfiler(const BusProfilerConfig &config = {});

    void plugInto(bus::Bus6xx &bus);
    void unplug(bus::Bus6xx &bus);

    bus::SnoopResponse snoop(const bus::BusTransaction &) override
    {
        return bus::SnoopResponse::None;
    }
    std::string snooperName() const override { return "bus-profiler"; }
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;

    /** Close the current window/burst (end of measurement). */
    void finish();

    /** Per-window utilization (tenures / window cycles). */
    const std::vector<double> &utilizationSeries() const
    {
        return windows_;
    }

    /** Peak window utilization seen. */
    double peakUtilization() const;

    /** Mean utilization over all complete windows. */
    double meanUtilization() const;

    /** Burst-length distribution (consecutive back-to-back tenures). */
    const telemetry::Histogram &burstHistogram() const { return burstHist_; }

    /** Tenure count per bus command. */
    std::uint64_t opCount(bus::BusOp op) const
    {
        return opCounts_[static_cast<std::size_t>(op)];
    }

    /** Tenure count per requesting CPU. */
    std::uint64_t cpuCount(CpuId cpu) const { return cpuCounts_[cpu]; }

    std::uint64_t totalTenures() const { return tenures_; }

    /**
     * Register the profiler as a live counter source under
     * "<prefix>.": total tenures (windowed delta), mean and peak
     * profiler-window utilization gauges, and a percent-utilization
     * histogram fed from each profiler window as it completes. The
     * sampler must outlive the profiler or be detached with the bus.
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         const std::string &prefix = "profiler");

    void clear();

  private:
    BusProfilerConfig config_;
    std::vector<double> windows_;
    Cycle windowStart_ = 0;
    std::uint64_t windowTenures_ = 0;

    telemetry::Histogram burstHist_{"profiler.burst_tenures", 4, 32};
    Cycle lastTenureCycle_ = 0;
    std::uint64_t burstLength_ = 0;

    std::array<std::uint64_t, bus::numBusOps> opCounts_{};
    std::array<std::uint64_t, maxHostCpus> cpuCounts_{};
    std::uint64_t tenures_ = 0;
    bool sawAny_ = false;

    /** Owned by the profiler, fed from windows_ (see attachTelemetry). */
    std::unique_ptr<telemetry::Histogram> windowUtilHist_;
};

} // namespace memories::ies

#endif // MEMORIES_IES_BUSPROFILER_HH
