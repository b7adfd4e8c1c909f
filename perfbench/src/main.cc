/**
 * @file
 * perfbench: runs one named workload from a seed, checks the
 * simulated output against the oracle, and prints every metric by name
 * with its unit. The last stdout line is the result object
 *   {"correct", "attempted", "failed", "metrics"}
 * with the end-to-end metrics (--trace 0) or the per-layer ones
 * (--trace 1). The full record — provenance, configuration, metrics,
 * notes — is also written under --out-dir, with the spans of a traced
 * run beside it.
 *
 * Usage: perfbench_bin --workload replay-hot|live-oltp|serve-ingest
 *        --seed N --seconds S --trace 0|1 [--git-sha SHA]
 *        [--out-dir DIR] [--tiny] [--corrupt stream|expect]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "bench.hh"
#include "common/logging.hh"
#include "tracer.hh"

namespace
{

using namespace perfbench;

struct MetricSpec
{
    std::string name;
    std::string unit;
};

/** End-to-end metrics: every workload reports all of them. */
const std::vector<MetricSpec> endToEnd = {
    {"bus_refs_per_s", "refs/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/**
 * Per-layer metrics in ladder order. A layer a workload bypasses
 * reports 0 (no calls, no time, no counts).
 */
std::vector<MetricSpec>
perLayer()
{
    std::vector<MetricSpec> m = {
        {"workload.next_ns_per_ref", "ns"},
        {"host.self_ns_per_ref", "ns"},
        {"host.l2_miss_ratio", "ratio"},
        {"host.writebacks", "count"},
        {"bus.tenures", "count"},
        {"bus.tenures_per_cpu_ref", "ratio"},
        {"bus.retries", "count"},
        {"bus.data_utilization", "ratio"},
        {"ies.snoop_ns_per_tenure", "ns"},
        {"ies.feed_batch_ns_per_ref", "ns"},
        {"ies.drain_ns", "ns"},
        {"ies.tenures", "count"},
        {"ies.committed", "count"},
        {"ies.filtered", "count"},
        {"ies.retries_posted", "count"},
        {"ies.lost_inflight", "count"},
        {"ies.buffer_high_water", "count"},
    };
    for (int n = 0; n < 4; ++n) {
        const std::string p = "node" + std::to_string(n);
        m.push_back({p + ".miss_ratio", "ratio"});
        m.push_back({p + ".evictions_dirty", "count"});
        m.push_back({p + ".interventions", "count"});
        m.push_back({p + ".remote_invalidations", "count"});
    }
    m.insert(m.end(), {
                          {"cache.directory_bytes", "bytes"},
                          {"service.feed_p50_us", "us"},
                          {"service.feed_p99_us", "us"},
                          {"service.emulate_ns_per_ref", "ns"},
                          {"service.wire_ns_per_ref", "ns"},
                          {"service.codec_ns_per_ref", "ns"},
                          {"service.feed_lines", "count"},
                          {"service.resends", "count"},
                          {"service.backpressure_events", "count"},
                          {"service.resend_frac", "ratio"},
                          {"service.session_setup_ms", "ms"},
                          {"bench.trace_overhead", "ratio"},
                          {"bench.attributed_frac", "ratio"},
                      });
    return m;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench_bin: %s\nusage: perfbench_bin "
                 "--workload replay-hot|live-oltp|serve-ingest --seed N "
                 "--seconds S --trace 0|1 [--git-sha SHA] [--out-dir DIR] "
                 "[--tiny] [--corrupt stream|expect]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv, std::string &git_sha)
{
    Options opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        char *end = nullptr;
        if (arg == "--workload") {
            opts.workload = value();
        } else if (arg == "--seed") {
            const std::string v = value();
            opts.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("bad --seed " + v);
            haveSeed = true;
        } else if (arg == "--seconds") {
            const std::string v = value();
            opts.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(opts.seconds > 0) ||
                opts.seconds > 120)
                usage("bad --seconds " + v);
            haveSeconds = true;
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opts.trace = v == "1";
            haveTrace = true;
        } else if (arg == "--git-sha") {
            git_sha = value();
        } else if (arg == "--out-dir") {
            opts.outDir = value();
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--corrupt") {
            opts.corrupt = value();
            if (opts.corrupt != "stream" && opts.corrupt != "expect")
                usage("--corrupt takes stream or expect");
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (opts.workload.empty() || !haveSeed || !haveSeconds || !haveTrace)
        usage("--workload, --seed, --seconds and --trace are required");
    return opts;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

/** Provenance lines, SNIPPETS.md printConfig() style. */
std::vector<std::string>
provenance(const Options &opts, const std::string &git_sha)
{
#ifdef __OPTIMIZE__
    const char *optimized = "yes";
#else
    const char *optimized = "no";
#endif
#ifdef NDEBUG
    const char *ndebug = "yes";
#else
    const char *ndebug = "no";
#endif
    return {
        "run_id: " + std::to_string(opts.runId),
        "workload: " + opts.workload,
        "seed: " + std::to_string(opts.seed),
        "seconds: " + jsonNumber(opts.seconds),
        "trace: " + std::to_string(opts.trace ? 1 : 0),
        "git_sha: " + (git_sha.empty() ? std::string("unknown") : git_sha),
        "nproc: " + std::to_string(usableCpus()) + " usable, " +
            std::to_string(std::thread::hardware_concurrency()) + " online",
        std::string("build.type: ") + PERFBENCH_BUILD_TYPE,
        std::string("build.optimized: ") + optimized,
        std::string("build.ndebug: ") + ndebug,
        std::string("build.lto: ") + (PERFBENCH_LTO ? "yes" : "no"),
        std::string("build.compiler: ") + __VERSION__,
    };
}

} // namespace

int
main(int argc, char **argv)
{
    std::string gitSha;
    Options opts = parseArgs(argc, argv, gitSha);
    opts.runId = static_cast<std::uint32_t>(
        (static_cast<std::uint64_t>(::getpid()) << 16) ^
        static_cast<std::uint64_t>(
            Clock::now().time_since_epoch().count()));
    memories::setLoggingQuiet(true);

    RunResult (*run)(const Options &) = nullptr;
    if (opts.workload == "replay-hot")
        run = runReplayHot;
    else if (opts.workload == "live-oltp")
        run = runLiveOltp;
    else if (opts.workload == "serve-ingest")
        run = runServeIngest;
    else
        usage("unknown workload " + opts.workload);

    std::error_code ec;
    std::filesystem::create_directories(opts.outDir, ec);
    if (ec)
        usage("cannot create --out-dir " + opts.outDir);

    RunResult result;
    try {
        result = run(opts);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_bin: %s failed: %s\n",
                     opts.workload.c_str(), e.what());
        return 1;
    }

    const auto specs = opts.trace ? perLayer() : endToEnd;
    std::set<std::string> known;
    for (const MetricSpec &m : specs)
        known.insert(m.name);
    for (const auto &[name, value] : result.metrics) {
        (void)value;
        // Repetition counts carry raw.* and client<k>.* detail too.
        if (!known.count(name) && name.rfind("raw.", 0) != 0 &&
            name.rfind("client", 0) != 0) {
            std::fprintf(stderr, "perfbench_bin: unknown metric %s\n",
                         name.c_str());
            return 1;
        }
    }
    if (!opts.trace) {
        for (const MetricSpec &m : specs) {
            if (!result.metrics.count(m.name)) {
                std::fprintf(stderr,
                             "perfbench_bin: missing metric %s\n",
                             m.name.c_str());
                return 1;
            }
        }
    }

    std::vector<double> values;
    for (const MetricSpec &m : specs) {
        const auto it = result.metrics.find(m.name);
        const double v = it == result.metrics.end() ? 0.0 : it->second;
        // End-to-end metrics are never 0 in a run that measured them.
        if (!std::isfinite(v) || (!opts.trace && v <= 0))
            result.problems.push_back("metric " + m.name +
                                      " was not measured");
        values.push_back(std::isfinite(v) ? v : 0.0);
    }

    const bool correct = result.problems.empty();
    const std::uint64_t attempted = std::max<std::uint64_t>(
        result.attempted, 1);
    const std::uint64_t failed = correct ? result.failed : attempted;

    const auto prov = provenance(opts, gitSha);
    std::printf("== provenance ==\n");
    for (const std::string &line : prov)
        std::printf("  %s\n", line.c_str());
    std::printf("== configuration ==\n");
    for (const std::string &line : result.config)
        std::printf("  %s\n", line.c_str());
    std::printf("== %s metrics ==\n",
                opts.trace ? "per-layer" : "end-to-end");
    std::string metricsJson;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const MetricSpec &m = specs[i];
        const double v = values[i];
        std::printf("  %-32s %18.6f %s\n", m.name.c_str(), v,
                    m.unit.c_str());
        metricsJson += std::string(metricsJson.empty() ? "" : ", ") +
                       jsonString(m.name) + ": {\"value\": " +
                       jsonNumber(v) + ", \"unit\": " +
                       jsonString(m.unit) + "}";
    }
    std::printf("  failed_frac %.6f (%llu of %llu refs)\n",
                static_cast<double>(failed) /
                    static_cast<double>(attempted),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    if (!result.notes.empty()) {
        std::printf("== notes ==\n");
        for (const std::string &line : result.notes)
            std::printf("  %s\n", line.c_str());
    }
    std::printf("== output check: %s ==\n", correct ? "pass" : "FAIL");
    for (const std::string &line : result.problems)
        std::printf("  %s\n", line.c_str());

    const std::string stem = opts.outDir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             std::to_string(opts.trace ? 1 : 0);
    auto jsonList = [](const std::vector<std::string> &lines) {
        std::string out = "[";
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (i)
                out += ", ";
            out += jsonString(lines[i]);
        }
        return out + "]";
    };
    {
        std::ofstream record(stem + ".json");
        record << "{\"provenance\": " << jsonList(prov)
               << ", \"config\": " << jsonList(result.config)
               << ", \"correct\": " << (correct ? "true" : "false")
               << ", \"attempted\": " << attempted
               << ", \"failed\": " << failed << ", \"metrics\": {"
               << metricsJson << "}, \"problems\": "
               << jsonList(result.problems)
               << ", \"notes\": " << jsonList(result.notes) << "}\n";
    }
    if (opts.trace) {
        std::vector<const Tracer *> tracers;
        for (const auto &t : result.tracers)
            tracers.push_back(t.get());
        std::uint64_t dropped = 0;
        for (const Tracer *t : tracers)
            dropped += t->dropped();
        if (writeSpans(stem + ".spans.jsonl", opts.runId, tracers))
            std::printf("spans: %s.spans.jsonl (%llu beyond the per-thread "
                        "cap not kept; aggregates include them)\n",
                        stem.c_str(),
                        static_cast<unsigned long long>(dropped));
    }
    std::printf("record: %s.json\n", stem.c_str());

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson.c_str());
    return 0;
}
