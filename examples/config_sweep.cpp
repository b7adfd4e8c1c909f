/**
 * @file
 * The Figure 11 L3 cache-size sweep in a single pass per application.
 *
 * The hardware board emulates one configuration per real-time run, so
 * the paper's six-point miss-ratio curve cost six multi-hour runs per
 * application. ExperimentFleet removes that constraint: one host run
 * feeds six independently-configured boards through the fan-out ring,
 * each on its own worker thread, producing the whole curve at once —
 * with results bit-identical to six serial runs (see
 * tests/ies/fanout_equiv_test.cc for the proof obligation).
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/config_sweep [--workers=N] [--telemetry=DIR]
 *       [--faults=PATH] [--warm-checkpoint=DIR]
 *
 * --workers defaults to the hardware thread count; a malformed,
 * unknown or zero argument exits 2 with the usage.
 *
 * With --warm-checkpoint, the per-app warmup pass is checkpointed: the
 * first run saves every board's post-warmup state to dir as IESCKPT
 * files, and later runs restore those instead of re-emulating the
 * warmup on all boards (the host still replays its half-length warmup
 * detached, which is exactly equivalent — the fan-out tap is passive,
 * see tests/ies/fanout_equiv_test.cc — but skips the board-side work).
 * Measured ratios are bit-identical either way; the tool reports the
 * measured wall-clock speedup.
 *
 * With --telemetry, each application's measurement pass also emits
 * windowed telemetry (host refs, L2 misses and writebacks; bus
 * tenures, retries and utilization; the fleet's tap counters) as
 * sweep_<app>.jsonl, plus a sweep_fleet.csv fidelity report: each
 * board's consumed events, overflow drops and ring stalls, read once
 * the workers are joined.
 *
 * With --faults, every board carries its own deterministic fault
 * injector driving the same plan under a different seed (seed = board
 * index + 1), so one sweep doubles as a robustness campaign: the
 * summary then reports injected-fault counts and each board's health
 * state next to its miss ratios (see docs/FAULTS.md).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

/** Wall-clock milliseconds since @p start. */
double
msSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
program(int argc, char **argv)
{
    using namespace memories;

    std::string fault_plan_path, warm_dir, telemetry_dir;
    std::size_t workers = std::max(1u, std::thread::hardware_concurrency());
    CommandLine("[--workers=N] [--telemetry=DIR] [--faults=PATH] "
                "[--warm-checkpoint=DIR]")
        .flag("--workers", workers, 1)
        .flag("--telemetry", telemetry_dir)
        .flag("--faults", fault_plan_path)
        .flag("--warm-checkpoint", warm_dir)
        .parseOrExit(argc, argv);
    if (!warm_dir.empty())
        std::filesystem::create_directories(warm_dir);
    if (!telemetry_dir.empty())
        std::filesystem::create_directories(telemetry_dir);

    fault::FaultPlan fault_plan;
    if (!fault_plan_path.empty())
        fault_plan = fault::FaultPlan::load(fault_plan_path);

    setLoggingQuiet(true);

    // The Figure 11 L3 axis, scaled as in bench/fig11_l3_missratio.cc.
    std::vector<cache::CacheConfig> sizes;
    for (std::uint64_t mb : {2, 4, 8, 16, 32, 64})
        sizes.push_back(cache::CacheConfig{
            mb * MiB, 4, 128, cache::ReplacementPolicy::LRU});

    constexpr std::uint64_t refs = 4'000'000;
    auto suite = workload::paperSplashSuite(8, 1.0 / 64.0);

    // Check every configuration up front and report the full problem
    // list, instead of aborting inside the first bad board build.
    std::vector<ies::BoardConfig> configs;
    for (const auto &l3 : sizes)
        configs.push_back(ies::makeUniformBoard(1, 8, l3));
    for (std::size_t c = 0; c < configs.size(); ++c) {
        const auto errors = configs[c].validationErrors();
        if (errors.empty())
            continue;
        std::fprintf(stderr, "configuration %zu (%s) is invalid:\n", c,
                     formatByteSize(sizes[c].sizeBytes).c_str());
        for (const auto &e : errors)
            std::fprintf(stderr, "  - %s\n", e.c_str());
        return 1;
    }

    std::printf("config_sweep: %zu L3 sizes x %zu SPLASH2 apps, "
                "%zu workers, %llu refs per app\n",
                sizes.size(), suite.size(), workers,
                static_cast<unsigned long long>(refs));
    if (!fault_plan.empty())
        std::printf("fault campaign: %zu specs from %s\n%s",
                    fault_plan.size(), fault_plan_path.c_str(),
                    fault_plan.describe().c_str());
    std::printf("\n");
    std::printf("%-10s", "L3 size");
    for (const auto &app : suite)
        std::printf(" %9s", app.name.c_str());
    std::printf("\n");

    std::vector<std::vector<double>> ratios(sizes.size());
    std::uint64_t total_stalls = 0;
    std::uint64_t total_drops = 0;
    std::uint64_t total_injected = 0;
    std::string fleet_csv;
    for (const auto &app : suite) {
        workload::SplashWorkload wl(app);
        host::HostMachine machine(host::s7aConfig(), wl);

        ies::ExperimentFleet fleet;
        for (std::size_t c = 0; c < configs.size(); ++c)
            fleet.addExperiment(configs[c], 1,
                                formatByteSize(sizes[c].sizeBytes));

        // One injector per board, same plan, seed varying by board
        // index: every board sees an independent but reproducible
        // fault stream.
        std::vector<std::unique_ptr<fault::FaultInjector>> injectors;
        if (!fault_plan.empty()) {
            for (std::size_t c = 0; c < configs.size(); ++c) {
                injectors.push_back(
                    std::make_unique<fault::FaultInjector>(fault_plan,
                                                           c + 1));
                fleet.attachFaultInjector(c, *injectors.back());
            }
        }
        // Warmup pass, then measure the steady state: the boards stay
        // warm across fleet sessions, so clearing counters between
        // start() calls reproduces the paper's long-trace methodology.
        //
        // With --warm-checkpoint, the board-side warmup runs once ever:
        // the first pass saves each board's post-warmup IESCKPT file,
        // and later runs restore them while the host replays its
        // warmup detached (the fan-out tap is passive, so the host
        // reaches an identical state either way).
        std::vector<std::string> warm_paths;
        for (std::size_t c = 0; c < sizes.size(); ++c) {
            if (!warm_dir.empty())
                warm_paths.push_back(
                    warm_dir + "/warm_" + app.name + "_" +
                    std::to_string(sizes[c].sizeBytes) + ".ckpt");
        }
        bool have_warm = !warm_dir.empty();
        for (const auto &path : warm_paths)
            have_warm = have_warm && std::filesystem::exists(path);
        const std::string cold_ms_path =
            warm_dir + "/warm_" + app.name + ".cold_ms";

        const auto warmup_start = std::chrono::steady_clock::now();
        if (have_warm) {
            machine.run(refs / 2);
            for (std::size_t c = 0; c < sizes.size(); ++c)
                fleet.restoreBoard(c, warm_paths[c]);
            const double warm_ms = msSince(warmup_start);
            double cold_ms = 0.0;
            std::ifstream in(cold_ms_path);
            in >> cold_ms;
            if (cold_ms > 0.0) {
                std::printf("  %s warm start: %.0f ms vs %.0f ms cold "
                            "warmup (%.1fx)\n",
                            app.name.c_str(), warm_ms, cold_ms,
                            cold_ms / (warm_ms > 0.0 ? warm_ms : 1.0));
            } else {
                std::printf("  %s warm start: restored %zu boards in "
                            "%.0f ms\n",
                            app.name.c_str(), warm_paths.size(),
                            warm_ms);
            }
        } else {
            fleet.attach(machine.bus());
            fleet.start(workers);
            machine.run(refs / 2);
            fleet.finish();
            const double cold_ms = msSince(warmup_start);
            if (!warm_dir.empty()) {
                for (std::size_t c = 0; c < sizes.size(); ++c)
                    fleet.checkpointBoard(c, warm_paths[c]);
                std::ofstream out(cold_ms_path, std::ios::trunc);
                out << cold_ms << "\n";
                std::printf("  %s warmup checkpointed to %s "
                            "(%.0f ms cold)\n",
                            app.name.c_str(), warm_dir.c_str(),
                            cold_ms);
            }
        }
        for (std::size_t c = 0; c < sizes.size(); ++c)
            fleet.board(c).clearCounters();

        // Measurement pass, optionally with windowed telemetry. Only
        // thread-safe sources are registered (host, bus, fleet
        // atomics): the boards' own banks belong to worker threads.
        std::unique_ptr<telemetry::Sampler> sampler;
        std::ofstream jsonl;
        const std::string jsonl_path =
            telemetry_dir + "/sweep_" + app.name + ".jsonl";
        if (!telemetry_dir.empty()) {
            jsonl.open(jsonl_path, std::ios::trunc);
            if (!jsonl)
                fatal("cannot create telemetry file '", jsonl_path, "'");
            sampler = std::make_unique<telemetry::Sampler>(250'000);
            sampler->addExporter([&jsonl](const telemetry::WindowRecord &w) {
                jsonl << telemetry::jsonLine(w);
            });
            // Only bus-thread sources, so the uploaded artifacts are
            // byte-stable run-to-run (the per-board fidelity numbers
            // land in sweep_fleet.csv after finish()).
            fleet.attachTelemetry(*sampler);
            machine.attachTelemetry(*sampler);
        }

        fleet.attach(machine.bus());
        fleet.start(workers);
        if (sampler) {
            // start() zeroed the fleet counters and the warmup pass
            // left bus time far from zero: re-baseline and skip ahead.
            sampler->resync(machine.bus().now());
        }
        machine.run(refs);
        fleet.finish();
        if (sampler) {
            machine.bus().detachSampler();
            sampler->finish(machine.bus().now());
            jsonl.close();
            if (jsonl.fail())
                fatal("failed writing telemetry file '", jsonl_path, "'");
        }

        const auto fleet_report = ies::FleetReport::capture(fleet);
        total_drops += fleet_report.totalOverflowDrops();
        if (fleet_report.totalOverflowDrops() > 0)
            std::printf("%s\n", fleet_report.toText().c_str());
        if (fleet_csv.empty())
            fleet_csv = "app,board,consumed,overflow_drops,"
                        "backpressure_stalls,lost_inflight,health,"
                        "published,tap_filtered,tap_retry_dropped\n";
        for (const auto &line : fleet_report.boards) {
            fleet_csv += app.name + "," + line.label + "," +
                         std::to_string(line.consumed) + "," +
                         std::to_string(line.overflowDrops) + "," +
                         std::to_string(line.backpressureStalls) + "," +
                         std::to_string(line.lostInflight) + "," +
                         line.healthState + "," +
                         std::to_string(fleet_report.published) + "," +
                         std::to_string(fleet_report.tapFiltered) + "," +
                         std::to_string(fleet_report.tapRetryDropped) +
                         "\n";
        }

        for (std::size_t c = 0; c < sizes.size(); ++c) {
            const auto s = fleet.board(c).node(0).stats();
            ratios[c].push_back(s.missRatio());
            total_stalls += fleet.backpressureStalls(c);
        }

        if (!injectors.empty()) {
            std::printf("  %s fault campaign:", app.name.c_str());
            for (std::size_t c = 0; c < sizes.size(); ++c) {
                total_injected += injectors[c]->totalInjected();
                const std::string state{fault::healthStateName(
                    fleet.board(c).healthState())};
                std::printf(" %s=%llu/%s",
                            formatByteSize(sizes[c].sizeBytes).c_str(),
                            static_cast<unsigned long long>(
                                injectors[c]->totalInjected()),
                            state.c_str());
            }
            std::printf("\n");
        }
    }

    if (!telemetry_dir.empty()) {
        std::ofstream out(telemetry_dir + "/sweep_fleet.csv",
                          std::ios::trunc);
        out << fleet_csv;
    }

    for (std::size_t c = 0; c < sizes.size(); ++c) {
        std::printf("%-10s",
                    formatByteSize(sizes[c].sizeBytes).c_str());
        for (double r : ratios[c])
            std::printf(" %9.4f", r);
        std::printf("\n");
    }

    int monotone = 0;
    for (std::size_t app = 0; app < suite.size(); ++app) {
        bool ok = true;
        for (std::size_t c = 1; c < sizes.size(); ++c)
            ok = ok && ratios[c][app] <= ratios[c - 1][app] + 0.01;
        monotone += ok;
    }
    std::printf("\nshape check: %d/%zu applications monotonically "
                "decreasing with L3 size (Figure 11).\n",
                monotone, suite.size());
    std::printf("fan-out: entire sweep took 1 host pass per app "
                "instead of %zu; producer backpressure stalls: %llu, "
                "overflow drops: %llu\n",
                sizes.size(),
                static_cast<unsigned long long>(total_stalls),
                static_cast<unsigned long long>(total_drops));
    if (!fault_plan.empty())
        std::printf("fault campaign: %llu faults injected across the "
                    "sweep\n",
                    static_cast<unsigned long long>(total_injected));
    if (!telemetry_dir.empty())
        std::printf("telemetry written to %s/sweep_*.jsonl and "
                    "%s/sweep_fleet.csv\n",
                    telemetry_dir.c_str(), telemetry_dir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
