/**
 * @file
 * Windowed counter sampling driven by emulated bus cycles.
 *
 * The hardware board's console polls >400 live 40-bit counters while
 * the host runs, and the operator watches miss ratios and bus
 * utilization evolve in real time (paper section 3). The Sampler is
 * that readout path for the software board: registered counter sources
 * are snapshotted at fixed bus-cycle windows and the per-window deltas
 * — computed exactly across 40-bit wraparound — are handed to exporter
 * callbacks, which render them (telemetry/exporter.hh) and write them
 * to files their owners opened.
 *
 * Two properties are structural:
 *
 *  - *Virtual time.* Windows close on emulated bus cycles, never wall
 *    clock, so a replayed trace produces byte-identical telemetry to
 *    the live run that captured it, at any host speed.
 *
 *  - *Zero cost when absent.* Components expose an attach hook that
 *    stores one pointer; their hot paths pay a single null check when
 *    no sampler is attached. advanceTo() itself is an inlined compare
 *    until a window boundary actually passes.
 *
 * Threading: the sampler is driven from the thread that advances bus
 * time and reads its sources on that thread, so every source must be
 * written on that thread too (ExperimentFleet::attachTelemetry
 * registers only the fleet's tap counters); CounterBanks owned by
 * fleet worker threads must not be registered live.
 */

#ifndef MEMORIES_TELEMETRY_SAMPLER_HH
#define MEMORIES_TELEMETRY_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/counters.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace memories::telemetry
{

/** One closed sampling window, as handed to exporters. */
struct WindowRecord
{
    /** Window sequence number, starting at 0. */
    std::uint64_t index = 0;
    /** Window span in bus cycles: [beginCycle, endCycle). */
    Cycle beginCycle = 0;
    Cycle endCycle = 0;

    /** Per-window counter movement (wrap-exact delta) + running total. */
    struct CounterPoint
    {
        const std::string *name;
        std::uint64_t delta;
        std::uint64_t total;
    };
    std::vector<CounterPoint> counters;

    /** Instantaneous values read at window close. */
    struct GaugePoint
    {
        const std::string *name;
        double value;
    };
    std::vector<GaugePoint> gauges;

    /** Registered histograms (cumulative state at window close). */
    std::vector<const Histogram *> histograms;
};

/** Periodic windowed snapshotter over registered counter sources. */
class Sampler
{
  public:
    /** @param window_cycles Bus cycles per sampling window (>0). */
    explicit Sampler(Cycle window_cycles);

    /**
     * Register every counter of @p bank under "<prefix>.<name>" (or the
     * bare counter name when @p prefix is empty). The bank must outlive
     * the sampler; counters added to the bank later are not tracked.
     * Deltas are computed with Counter40::delta, so a counter may wrap
     * any number of times across windows as long as it moves by less
     * than 2^40 within one window.
     */
    void addBank(std::string_view prefix, const CounterBank &bank);

    /**
     * Register a cumulative 64-bit source read via @p read (full-width
     * delta, no wrap). For values produced by other threads, @p read
     * must itself be thread-safe.
     */
    void addValue(std::string name, std::function<std::uint64_t()> read);

    /** Register an instantaneous gauge sampled at window close. */
    void addGauge(std::string name, std::function<double()> read);

    /** Register a histogram; the caller retains ownership. */
    void addHistogram(const Histogram &histogram);

    /**
     * Hook run at each window close after counter deltas and gauges are
     * read but before exporters fire — the place to fold a delta into a
     * histogram (per-window bus utilization works this way).
     */
    void addWindowCallback(std::function<void(const WindowRecord &)> fn);

    /**
     * Hook run at each window close after every window callback, with
     * the histograms attached — the place to render the window and
     * write it out. Exporters run in registration order.
     */
    void addExporter(std::function<void(const WindowRecord &)> fn);

    /**
     * Advance the sampler clock; closes (and exports) every window
     * whose end has passed. Inline fast path: one compare per call
     * while inside the current window.
     */
    void advanceTo(Cycle now)
    {
        if (now >= windowEnd_)
            roll(now);
    }

    /**
     * Re-read every counter baseline and fast-forward the window clock
     * to the window containing @p now, without emitting anything.
     *
     * Call this when the measured run actually begins if either (a)
     * bus time is already past zero (warmup pass: skips the burst of
     * empty windows a first advanceTo() would otherwise emit), or (b)
     * a registered source has been reset since registration (e.g.
     * ExperimentFleet::start() zeroes the fleet counters, which would
     * otherwise corrupt the first window's delta).
     */
    void resync(Cycle now);

    /**
     * Close the trailing partial window [windowBegin, now) if it is
     * non-empty. Call once at end of run; later calls do nothing.
     */
    void finish(Cycle now);

    Cycle windowCycles() const { return windowCycles_; }
    std::uint64_t windowsEmitted() const { return emitted_; }

  private:
    void roll(Cycle now);
    void emitWindow(Cycle begin, Cycle end);

    struct CounterSource
    {
        std::string name;
        std::function<std::uint64_t()> read;
        std::uint64_t mask; //!< Counter40::mask or ~0 for 64-bit
        std::uint64_t prev = 0;
        std::uint64_t total = 0;
    };
    struct GaugeSource
    {
        std::string name;
        std::function<double()> read;
    };

    Cycle windowCycles_;
    Cycle windowBegin_ = 0;
    Cycle windowEnd_;
    std::uint64_t emitted_ = 0;
    bool finished_ = false;

    std::vector<CounterSource> counters_;
    std::vector<GaugeSource> gauges_;
    std::vector<const Histogram *> histograms_;
    std::vector<std::function<void(const WindowRecord &)>> callbacks_;
    std::vector<std::function<void(const WindowRecord &)>> exporters_;
};

} // namespace memories::telemetry

#endif // MEMORIES_TELEMETRY_SAMPLER_HH
