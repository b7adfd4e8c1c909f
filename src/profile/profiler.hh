/**
 * @file
 * IESPROF: the emulator profiling itself.
 *
 * Every other observability layer in this codebase watches the
 * *emulated* machine — counters count target-cache events, the flight
 * recorder records tenure lifecycles, telemetry windows are bus-cycle
 * aligned. This subsystem watches the *emulator*: where the wall-clock
 * nanoseconds of MemoriesBoard::feedBatch actually go, attributed to
 * the pipeline stages of the batch hot path (batch admission and
 * retirement emulation).
 *
 * Design rules, in the order they matter:
 *
 *  1. Non-perturbing. The profiler only ever *reads* the clock and
 *     *writes* its own cells; it cannot change a single emulated byte.
 *     tests/profile/prof_equiv_test.cc proves attached-vs-detached
 *     byte equivalence the same way the batch equivalence tier does.
 *  2. Zero-cost when detached. Board hot paths guard every hook with
 *     one `if (prof_)` on a pointer that is null in the common case —
 *     the same single-predictable-branch contract the flight recorder,
 *     sampler, and fault injector already honor.
 *  3. Cheap when attached. Every stage is batch-frequency and pays
 *     one steady_clock pair per bout; no hook runs per tenure, so
 *     every stage is fully timed and a child never outweighs its
 *     parent. Measured overhead stays under 5% of the batch path
 *     (docs/PROFILING.md records the methodology).
 *  4. Single writer. Every cell is a plain integer written only by the
 *     thread running the board's feedBatch; readers (snapshot(), the
 *     reports, telemetry) run on that thread between batches, or after
 *     it has been joined.
 *
 * Exports: the stage table (describe()), the JSON breakdown the bench
 * gates read (json()), and Sampler series via attachTelemetry()
 * (Prometheus/JSONL/CSV for free).
 */

#ifndef MEMORIES_PROFILE_PROFILER_HH
#define MEMORIES_PROFILE_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace memories::telemetry
{
class Sampler;
} // namespace memories::telemetry

namespace memories::profile
{

/**
 * The pipeline stages of MemoriesBoard::feedBatch, in nesting order. FeedBatch is the root; BatchAdmission (credit pacing
 * included) and Emulation (the retirement-slab walk) are its children.
 */
enum class Stage : std::uint8_t
{
    FeedBatch = 0,
    BatchAdmission,
    Emulation,
    NumStages,
};

constexpr std::size_t numStages =
    static_cast<std::size_t>(Stage::NumStages);

/** Stable machine-readable stage name ("batch_admission", ...). */
const char *stageName(Stage stage);

/** Parent stage (FeedBatch is its own parent — the root). */
Stage stageParent(Stage stage);

/** Read-side view of one stage's accumulated attribution. */
struct StageStats
{
    std::uint64_t calls = 0; //!< scoped bouts entered
    std::uint64_t ns = 0;    //!< wall ns accumulated over every bout
};

/** Snapshot of everything the profiler collected. */
struct ProfReport
{
    std::vector<StageStats> stages; //!< indexed by Stage
    std::uint64_t batches = 0;      //!< FeedBatch's calls

    const StageStats &
    stage(Stage s) const
    {
        return stages[static_cast<std::size_t>(s)];
    }
};

/** The collector. One profiler serves one board; see class comment. */
class Profiler
{
  public:
    Profiler() = default;

    Profiler(const Profiler &) = delete;
    Profiler &operator=(const Profiler &) = delete;

    /** Zero every cell. */
    void reset();

    /** Monotonic wall clock, ns. */
    static std::uint64_t
    nowNs()
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
    }

    /**
     * Hot-path hook: record a stage bout started at @p t0 = nowNs().
     * The board calls it only through ScopedStage, never when detached.
     */
    void
    recordStage(Stage s, std::uint64_t t0)
    {
        StageStats &c = stageCells_[static_cast<std::size_t>(s)];
        ++c.calls;
        c.ns += nowNs() - t0;
    }

    // --- Read side. Call between batches (the same single-owner
    // contract as MemoriesBoard::attachTelemetry).

    /** Copy every cell into one report. */
    ProfReport snapshot() const;

    /** Aligned text report: the stage table. */
    std::string describe() const;

    /**
     * The stage table as one JSON object (no trailing newline), as
     * `bench --profile` embeds it in BENCH_throughput.json:
     * {"refs":N,"batches":B,"stages":[{"stage":...,"parent":...,
     * "calls":...,"ns":...,"ns_per_ref":...},...]}. "parent" names the
     * stage's parent (feed_batch is its own); ns_per_ref divides by
     * @p refs (0 renders as 0).
     */
    std::string json(std::uint64_t refs) const;

    /**
     * Register the stage observables with a telemetry sampler:
     * "<prefix>.stage.<name>.ns" and ".calls" as windowed counters per
     * stage — which is how the profiler reaches JSON Lines and
     * Prometheus output. Values read through `this`; keep the profiler
     * alive while the sampler runs.
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         const std::string &prefix = "prof");

  private:
    /** One stage's accumulators (see design rule 4). */
    StageStats stageCells_[numStages];
};

/**
 * RAII stage scope for block-structured sites: times the enclosed
 * block iff @p profiler is non-null (one predictable branch when
 * detached, matching the board's other attach points).
 */
class ScopedStage
{
  public:
    ScopedStage(Profiler *profiler, Stage stage)
        : profiler_(profiler), stage_(stage),
          t0_(profiler ? Profiler::nowNs() : 0)
    {
    }

    ~ScopedStage()
    {
        if (profiler_)
            profiler_->recordStage(stage_, t0_);
    }

    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    Profiler *profiler_;
    Stage stage_;
    std::uint64_t t0_;
};

} // namespace memories::profile

#endif // MEMORIES_PROFILE_PROFILER_HH
