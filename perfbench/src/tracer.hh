/**
 * @file
 * Span tracer for the traced run. Spans are recorded from the
 * benchmark's own code around its calls into each layer's public
 * functions (nothing inside the emulator is instrumented). Each span has
 * a name, start, end, parent, thread and one run id; they are kept in
 * memory and written out when the run ends.
 *
 * Self time is a span's duration minus its children's, corrected for
 * the tracer's own cost: calibrate() measures d0, the duration an empty
 * span reports, and e, the time an empty span adds to its parent. A span
 * with n children that measured m therefore did
 *     self = m - d0 - sum(child m) - n * (e - d0)
 * of its own work, and its inclusive time is m - d0.
 *
 * Aggregates cover every span; individual span records are capped
 * (spanCap) so hot per-reference spans cannot exhaust memory — the
 * number not kept is reported as dropped.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Every span the benchmark records, in ladder order. */
enum class Span : std::uint8_t
{
    Setup,           //!< bench.setup: one repetition's set-up
    Timed,           //!< bench.timed: one repetition's timed region
    WorkloadNext,    //!< workload.next: Workload::next()
    HostRun,         //!< host.run: HostMachine::run(slice)
    IesSnoop,        //!< ies.snoop: MemoriesBoard::snoop
    IesObserve,      //!< ies.observeResult: MemoriesBoard::observeResult
    IesFeedBatch,    //!< ies.feedBatch: MemoriesBoard::feedBatch
    IesDrain,        //!< ies.drainAll: MemoriesBoard::drainAll
    ServiceStart,    //!< service.daemon_start: Daemon::start
    ServiceSession,  //!< service.session_setup: connect + configure
    ServiceFeedAll,  //!< service.feedAll: ServiceClient::feedAll
    ServiceDrain,    //!< service.drain: the `drain` request
    ServiceEmulate,  //!< service.emulate: in-process feedBatch twin
    ServiceCodec,    //!< service.codec: hex encode + decode
    Count
};

const char *spanName(Span s);

/** False for set-up spans and the service's out-of-band measurements. */
bool inTimedRegion(Span s);

/** Calibrated tracer cost, in nanoseconds. */
struct TraceCost
{
    double emptyNs = 0; //!< d0: what an empty span measures
    double addedNs = 0; //!< e: what an empty span adds to its parent
};

/** Measure TraceCost (medians over several batches of empty spans). */
TraceCost calibrate();

/** One thread's span recorder. Not thread-safe: one per thread. */
class Tracer
{
  public:
    struct Record
    {
        std::uint32_t parent; //!< record index, or noParent
        Span name;
        std::uint64_t startNs; //!< since the tracer's epoch
        std::uint64_t endNs;
    };

    struct Aggregate
    {
        std::uint64_t calls = 0;
        double inclusiveNs = 0;
        double selfNs = 0;
    };

    static constexpr std::uint32_t noParent = 0xffffffffu;
    static constexpr std::size_t spanCap = std::size_t{1} << 16;

    Tracer(TraceCost cost, Clock::time_point epoch, std::uint32_t thread);

    void begin(Span name);
    void end();

    const Aggregate &aggregate(Span s) const
    {
        return agg_[static_cast<std::size_t>(s)];
    }
    const std::vector<Record> &records() const { return records_; }
    std::uint64_t dropped() const { return dropped_; }
    std::uint32_t thread() const { return thread_; }

    /** Add another thread's aggregates into this one. */
    void merge(const Tracer &other);

  private:
    struct Open
    {
        Clock::time_point start;
        double childMeasuredNs = 0;
        std::uint32_t children = 0;
        std::uint32_t record = noParent;
        Span name;
    };

    TraceCost cost_;
    Clock::time_point epoch_;
    std::uint32_t thread_;
    std::vector<Open> stack_;
    std::vector<Record> records_;
    std::uint64_t dropped_ = 0;
    std::array<Aggregate, static_cast<std::size_t>(Span::Count)> agg_{};
};

/** RAII span; a null tracer (the untraced run) records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, Span name) : tracer_(tracer)
    {
        if (tracer_)
            tracer_->begin(name);
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end();
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer_;
};

/**
 * Write every kept span of @p tracers as JSON lines to @p path:
 * {"run","thread","id","parent","name","start_ns","end_ns"}.
 * @return false when the file could not be written.
 */
bool writeSpans(const std::string &path, std::uint32_t run_id,
                const std::vector<const Tracer *> &tracers);

/**
 * Human-readable per-span table: calls, inclusive and self time, and
 * for spans in the timed region their self time as a share of
 * @p timed_ns (the timed region's total).
 */
void describeSpans(const Tracer &merged, double timed_ns,
                   std::vector<std::string> &lines);

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
