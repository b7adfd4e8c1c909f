/**
 * @file
 * Shared plumbing for the table/figure reproduction harnesses.
 *
 * Each bench declares only the flags it reads, and a malformed or
 * unknown argument (one another bench takes included) exits 2:
 *   --refs=M        host references to run, in millions (default per
 *                   bench; raise to approach paper-sized runs); every
 *                   bench but table2_parameters, through parseRefs()
 *                   or BenchArgs
 *   --scale=F       footprint scale factor relative to the bench
 *                   default; the benches that size a workload's
 *                   footprint, through BenchArgs
 *   --telemetry=DIR, --json=FILE, --profile
 *                   microbench_throughput only (its header); loadtest
 *                   takes --json=FILE too. CI uploads the JSON files as
 *                   artifacts so throughput is trackable over time
 *
 * The harnesses print the same rows/series the paper's tables and
 * figures report, alongside the paper's published values where they
 * exist, so EXPERIMENTS.md can record paper-vs-measured shape checks.
 */

#ifndef MEMORIES_BENCH_BENCHUTIL_HH
#define MEMORIES_BENCH_BENCHUTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "checkpoint/io.hh"
#include "common/cmdline.hh"

namespace memories::bench
{

/** --refs and --scale, the flags of a bench that sizes a footprint. */
struct BenchArgs
{
    double refsMillions = 0;  //!< 0 = use the bench's default
    double scale = 1.0;

    /** Read argv; a bad argument prints the usage and exits 2. */
    static BenchArgs
    parse(int argc, char **argv)
    {
        BenchArgs args;
        CommandLine("[--refs=<millions>] [--scale=F]")
            .flag("--refs", args.refsMillions)
            .flag("--scale", args.scale)
            .parseOrExit(argc, argv);
        return args;
    }

    std::uint64_t
    refsOrDefault(double default_millions) const
    {
        const double m =
            refsMillions > 0 ? refsMillions : default_millions;
        return static_cast<std::uint64_t>(m * 1e6);
    }
};

/** Wall-clock stopwatch. */
class Stopwatch
{
  public:
    Stopwatch() : start_(clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/** One timed section's result, for the optional JSON results file. */
struct BenchResult
{
    std::string label;
    double seconds = 0;
    double events = 0;

    double
    eventsPerSec() const
    {
        return seconds > 0 ? events / seconds : 0;
    }
};

/** Commit SHA CI stamps into results files, or "unknown" locally. */
inline std::string
buildSha()
{
    for (const char *var : {"GITHUB_SHA", "MEMORIES_GIT_SHA"}) {
        if (const char *sha = std::getenv(var); sha != nullptr &&
                                                *sha != '\0')
            return sha;
    }
    return "unknown";
}

/**
 * Write timed sections as a machine-readable JSON artifact (the
 * BENCH_<name>.json files CI uploads): bench name, the commit they
 * measure, a one-line config description, and events/sec per section.
 * The file is replaced in one atomic write; a failure is a FatalError.
 *
 * @param extraJson Optional extra top-level members, rendered verbatim
 *        after the sections array (e.g. "\"profile\": {...}"); pass ""
 *        for the plain schema.
 */
inline void
writeJsonResults(const std::string &path, const std::string &bench,
                 const std::string &config,
                 const std::vector<BenchResult> &results,
                 const std::string &extraJson = "")
{
    std::string json = "{\n  \"bench\": \"" + bench + "\",\n" +
                       "  \"git_sha\": \"" + buildSha() + "\",\n" +
                       "  \"config\": \"" + config + "\",\n" +
                       "  \"sections\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const BenchResult &r = results[i];
        char line[512];
        std::snprintf(line, sizeof(line),
                      "    {\"label\": \"%s\", \"seconds\": %.6f, "
                      "\"events\": %.0f, \"events_per_sec\": %.1f}%s\n",
                      r.label.c_str(), r.seconds, r.events,
                      r.eventsPerSec(), i + 1 < results.size() ? "," : "");
        json += line;
    }
    json += extraJson.empty() ? "  ]\n" : "  ],\n  " + extraJson + "\n";
    json += "}\n";
    ckpt::atomicWriteFile(path, json.data(), json.size());
}

/** Print a banner naming the experiment being reproduced. */
inline void
banner(const char *experiment, const char *paper_summary)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", experiment);
    std::printf("paper: %s\n", paper_summary);
    std::printf("==============================================================\n");
}

} // namespace memories::bench

#endif // MEMORIES_BENCH_BENCHUTIL_HH
