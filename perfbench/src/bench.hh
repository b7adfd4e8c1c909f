/**
 * @file
 * Shared vocabulary of the perfbench binary: run options, the result a
 * workload hands back, and the small measurement helpers (clock,
 * medians, resident-memory probes, allocation counting) every workload
 * uses. The workloads themselves live in replay_hot.cc, live_oltp.cc
 * and serve_ingest.cc; perfbench/README.md says why each exists.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ies/boardconfig.hh"
#include "tracer.hh"

namespace perfbench
{

/** What one invocation was asked to do. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Wall-clock budget for the measured repetitions. */
    double seconds = 10;
    /** 0: end-to-end metrics, untraced. 1: per-layer metrics. */
    bool trace = false;
    /**
     * Self-test hook: "stream" alters one tenure the oracle is fed,
     * "expect" alters one expected counter; either must fail the
     * output check. Empty in real runs.
     */
    std::string corrupt;
    /** Self-test hook: shrink every repetition to a few thousand refs. */
    bool tiny = false;
    /** Where the run record and spans are written. */
    std::string outDir = ".bench_build/perfbench";
    std::uint32_t runId = 0;
};

/**
 * Deterministic counts of one repetition, by name. Every repetition of
 * a run — traced or not — must produce exactly the same map; the
 * per-layer count metrics are read from it.
 */
using Counts = std::map<std::string, double>;

/** What a workload reports back to main(). */
struct RunResult
{
    /** End-to-end metrics by name (trace 0), per-layer ones (trace 1). */
    std::map<std::string, double> metrics;
    /** Refs the run tried to push through the system. */
    std::uint64_t attempted = 0;
    /** Refs never accepted (service re-send valve, client errors). */
    std::uint64_t failed = 0;
    /** Output-check and determinism failures; empty when correct. */
    std::vector<std::string> problems;
    /** Effective configuration, one "key: value" per line. */
    std::vector<std::string> config;
    /** Human-readable notes: sample counts, the per-span table. */
    std::vector<std::string> notes;
    /** Every thread's tracer (trace 1), for the spans file. */
    std::vector<std::unique_ptr<Tracer>> tracers;
};

RunResult runReplayHot(const Options &opts);
RunResult runLiveOltp(const Options &opts);
RunResult runServeIngest(const Options &opts);

// --- measurement helpers -------------------------------------------

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Repetition schedule. Repetitions run until the time budget is spent,
 * and at least @p min_each of each kind ran. A traced run alternates
 * untraced and traced repetitions, so the tracing overhead is an
 * interleaved A/B comparison.
 */
class Schedule
{
  public:
    Schedule(const Options &opts, std::size_t min_each)
        : budget_(opts.seconds), trace_(opts.trace),
          minReps_(opts.trace ? 2 * min_each : min_each)
    {
    }

    bool more() const
    {
        return reps_ < minReps_ || secondsSince(start_) < budget_;
    }
    bool traced() const { return trace_ && reps_ % 2 == 1; }
    void done() { ++reps_; }

  private:
    double budget_;
    bool trace_;
    std::size_t minReps_;
    std::size_t reps_ = 0;
    Clock::time_point start_ = Clock::now();
};

/**
 * Feed-call latencies grouped by repetition. The reported p50/p99 take
 * each repetition's own percentile and then the faster-half median over
 * repetitions, so one disturbed repetition cannot drag the tail; every
 * full-size repetition holds at least 500 calls, which leaves five
 * samples beyond its p99.
 */
class FeedLatencies
{
  public:
    void beginRepetition() { reps_.emplace_back(); }
    void add(double us) { reps_.back().push_back(us); }
    double percentileOverRepetitions(double pct) const;
    std::size_t samples() const;

  private:
    std::vector<std::vector<double>> reps_;
};

/** Median of @p v (0 for an empty vector). */
double median(std::vector<double> v);

/**
 * Median of the fastest @p share of per-repetition samples: the largest
 * ones when @p higher_is_faster (throughput), else the smallest (times).
 * The host this was tuned on alternates between two speed modes a few
 * hundred milliseconds apart; a plain median lands wherever a run's mix
 * of modes puts it, the fast share's median does not as long as the run
 * spent at least @p share of its repetitions in the fast mode.
 */
double fastestShareMedian(std::vector<double> v, bool higher_is_faster,
                          double share);

/** fastestShareMedian() over the faster half. */
inline double
fasterHalfMedian(std::vector<double> v, bool higher_is_faster)
{
    return fastestShareMedian(std::move(v), higher_is_faster, 0.5);
}

/** Nearest-rank percentile @p pct in [0,100] of @p v. */
double percentile(std::vector<double> v, double pct);

/** "name: n=<count> q1 <v> median <v> q3 <v> unit" for the notes. */
std::string describeSamples(const std::string &name,
                            const std::vector<double> &v,
                            const std::string &unit);

/** Peak resident set of this process so far, in MiB (VmHWM). */
double peakRssMiB();

/**
 * Bytes this thread has allocated through operator new since it
 * started (never decremented): the difference across a constructor is
 * what that constructor allocated.
 */
std::uint64_t threadAllocatedBytes();

/**
 * The determinism check: every repetition's counts must equal the first
 * repetition's. Only the first repetition's counts are kept, so the
 * process's memory does not grow with the number of repetitions a run
 * fits in, and peak_rss_mb does not move with the host's speed.
 */
class RepeatCheck
{
  public:
    /** Adds the next repetition; a difference adds one problem line. */
    void add(Counts counts, bool traced, std::vector<std::string> &problems);
    /** The first repetition's counts. */
    const Counts &first() const { return first_; }

  private:
    Counts first_;
    std::size_t seen_ = 0;
};

/** "key: value" configuration lines describing @p config. */
void describeBoard(const memories::ies::BoardConfig &config,
                   const std::string &prefix,
                   std::vector<std::string> &lines);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
