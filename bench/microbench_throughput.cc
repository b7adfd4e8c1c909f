/**
 * @file
 * Microbenchmark: the reproduction's "real-time" budget.
 *
 * The hardware board is real-time by construction. The software
 * reproduction's equivalent claim is throughput: how many bus
 * references per second the board path retires, versus the host-model
 * cost of *generating* realistic traffic, versus the detailed
 * simulator. This bench prints all three plus the implied wall-clock
 * for paper-scale runs, which EXPERIMENTS.md cites for every scaled
 * experiment.
 *
 * Usage: microbench_throughput [--refs=<millions>] [--telemetry=DIR]
 *                              [--json=FILE] [--profile]
 *
 *   --telemetry=DIR  write the first board section's windows to
 *                    DIR/microbench.jsonl (off by default, so the
 *                    timed loops stay instrumentation-free)
 *   --json=FILE      also write the sections as a JSON results file
 *   --profile        add the IESPROF-profiled feed section and print
 *                    its stage table; the breakdown also lands in the
 *                    JSON file
 *
 * Both files are opened or checked before the first section runs, so
 * a bad path fails at once.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"
#include "service/wire.hh"

namespace
{

/** Median of @p samples (upper median for an even count). */
double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * Rounds of the sections the gates compare with each other. They run
 * interleaved, each on a fresh board, and each reports its median: a
 * slow stretch of the host lands in every section instead of skewing
 * one.
 */
constexpr int rounds = 11;

int
program(int argc, char **argv)
{
    using namespace memories;
    double millions = 4.0;
    std::string telemetry_dir, json_path;
    bool profile = false;
    CommandLine("[--refs=<millions>] [--telemetry=DIR] [--json=FILE] "
                "[--profile]")
        .flag("--refs", millions)
        .flag("--telemetry", telemetry_dir)
        .flag("--json", json_path)
        .flag("--profile", profile)
        .parseOrExit(argc, argv);

    std::ofstream jsonl;
    const std::string jsonl_path = telemetry_dir + "/microbench.jsonl";
    if (!telemetry_dir.empty()) {
        std::filesystem::create_directories(telemetry_dir);
        jsonl.open(jsonl_path, std::ios::trunc);
        if (!jsonl)
            fatal("cannot create telemetry file '", jsonl_path, "'");
    }
    if (!json_path.empty())
        ckpt::requireWritableDir(json_path);

    bench::banner("Microbenchmark: reproduction throughput",
                  "board path vs host model vs detailed simulator");

    const auto n = static_cast<std::uint64_t>(millions * 1e6);

    // Pre-generate a transaction stream.
    std::vector<bus::BusTransaction> trace;
    trace.reserve(n);
    {
        Rng rng(9);
        ZipfSampler zipf(1 << 20, 0.8);
        for (std::uint64_t i = 0; i < n; ++i) {
            bus::BusTransaction txn;
            txn.addr = zipf.sample(rng) * 128;
            txn.op = rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                       : bus::BusOp::Read;
            txn.cpu = static_cast<CpuId>(i % 8);
            txn.cycle = 5 * i;
            trace.push_back(txn);
        }
    }

    std::vector<bench::BenchResult> results;
    std::string profile_json; // "\"profile\": {...}" when --profile ran
    auto report = [&results](const char *label, double seconds,
                             double count) {
        std::printf("%-34s %8.1f M/s  %6.1f ns/ref\n", label,
                    count / seconds / 1e6, seconds / count * 1e9);
        results.push_back({label, seconds, count});
    };

    {
        bus::Bus6xx bus;
        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(bus);

        // Optional telemetry emission; the default (flag absent) keeps
        // the timed loop instrumentation-free, which is the number the
        // real-time claim rests on.
        std::unique_ptr<telemetry::Sampler> sampler;
        if (jsonl.is_open()) {
            sampler = std::make_unique<telemetry::Sampler>(500'000);
            sampler->addExporter([&jsonl](const telemetry::WindowRecord &w) {
                jsonl << telemetry::jsonLine(w);
            });
            board.attachTelemetry(*sampler);
            bus.attachSampler(*sampler);
        }

        bench::Stopwatch clock;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path (1 node), bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
        if (sampler) {
            bus.detachSampler();
            sampler->finish(bus.now());
            jsonl.close();
            if (jsonl.fail())
                fatal("failed writing telemetry file '", jsonl_path, "'");
            std::printf("  telemetry: %llu windows -> %s\n",
                        static_cast<unsigned long long>(
                            sampler->windowsEmitted()),
                        jsonl_path.c_str());
        }
    }
    {
        // The feed-path ladder behind docs/BATCH.md: the same board and
        // stream, fed one tenure at a time (serial), then in 4096-
        // tenure batches, then batched with an IESPROF profiler
        // attached (with --profile). feedbatch_test proves the paths
        // produce byte-identical state; this is their price, measured
        // in interleaved rounds (see `rounds`).
        const auto config = ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU});
        constexpr std::size_t chunk = 4096;
        auto feed_batches = [&](ies::MemoriesBoard &board,
                                std::size_t refs) {
            for (std::size_t at = 0; at < refs; at += chunk)
                board.feedBatch(&trace[at], std::min(chunk, refs - at));
            board.drainAll();
        };
        // The (profiled) section vs its plain twin is the
        // measured-overhead gate (<5%, enforced by
        // check_bench_regression.py); the last round's stage breakdown
        // becomes the "profile" object in the JSON artifact.
        profile::Profiler prof;
        std::vector<double> serial_s, batch_s, profiled_s;
        for (int r = 0; r < rounds; ++r) {
            {
                ies::MemoriesBoard board(config);
                bench::Stopwatch clock;
                for (const auto &txn : trace)
                    board.feedCommitted(txn);
                board.drainAll();
                serial_s.push_back(clock.seconds());
            }
            {
                ies::MemoriesBoard board(config);
                bench::Stopwatch clock;
                feed_batches(board, trace.size());
                batch_s.push_back(clock.seconds());
            }
            if (profile) {
                ies::MemoriesBoard board(config);
                prof.reset();
                board.attachProfiler(prof);
                bench::Stopwatch clock;
                feed_batches(board, trace.size());
                profiled_s.push_back(clock.seconds());
            }
        }
        const auto refs = static_cast<double>(trace.size());
        report("feed serial (feedCommitted)", median(serial_s), refs);
        report("feed batch", median(batch_s), refs);
        if (profile)
            report("feed batch (profiled)", median(profiled_s), refs);
        std::printf("  feed sections: median of %d interleaved rounds\n",
                    rounds);
        if (profile) {
            profile_json =
                "\"profile\": " +
                prof.json(static_cast<std::uint64_t>(trace.size()));
            std::printf("%s", prof.describe().c_str());
        }
    }
    {
        // The wire rung (ungated): the trace as 256-record feed lines,
        // encoded and parsed back by the two functions that
        // ServiceClient::feedAll and a session's `feed` call.
        constexpr std::size_t line_records = 256;
        std::string line;
        std::vector<bus::BusTransaction> parsed;
        Cycle prev = 0;
        bench::Stopwatch clock;
        for (std::size_t at = 0; at < trace.size(); at += line_records) {
            const std::size_t count =
                std::min(line_records, trace.size() - at);
            line.clear();
            service::appendFeedLine(line, &trace[at], count, prev);
            const service::FeedWords words =
                service::parseFeedLine(line, prev, line_records, parsed);
            if (!words.bad.empty() || parsed.size() != count ||
                parsed.back().cycle != trace[at + count - 1].cycle)
                fatal("wire codec: the line at record ", at,
                      " did not parse back");
            prev = parsed.back().cycle;
        }
        report("wire codec (encode+decode), records", clock.seconds(),
               static_cast<double>(trace.size()));
    }
    {
        // Four target machines: with two or more usable CPUs the board
        // emulates them on lane threads behind its one buffer
        // (DESIGN.md section 5, "Threading"), so this ungated rung
        // measures lanes. The 1-node sections and the recorder gate
        // below run one-machine boards, which stay serial.
        bus::Bus6xx bus;
        ies::MemoriesBoard board(ies::makeMultiConfigBoard(
            {cache::CacheConfig{16 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{64 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{256 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU},
             cache::CacheConfig{1 * GiB, 8, 128,
                                cache::ReplacementPolicy::LRU}},
            8));
        board.plugInto(bus);
        bench::Stopwatch clock;
        for (const auto &txn : trace) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board.drainAll();
        report("board path (4 configs), bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
    }
    {
        // Lifecycle-tracing overhead: the board+bus path with no
        // recorder attached (the one-branch "detached" cost every run
        // pays) and with a flight recorder recording every tenure. The
        // detached number must stay within noise of the plain board
        // path above — the recorder's always-on claim — and the
        // attached one is gated against it, so the two run as
        // interleaved rounds, each on a fresh bus and board.
        const auto config = ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU});
        auto bus_path = [&](trace::FlightRecorder *recorder) {
            bus::Bus6xx bus;
            ies::MemoriesBoard board(config);
            board.plugInto(bus);
            if (recorder) {
                bus.attachFlightRecorder(*recorder);
                board.attachFlightRecorder(*recorder, 0);
            }
            bench::Stopwatch clock;
            for (const auto &txn : trace) {
                bus.advanceTo(txn.cycle);
                bus.issue(txn);
            }
            board.drainAll();
            return clock.seconds();
        };
        std::vector<double> detached_s, attached_s;
        std::uint64_t recorded = 0;
        for (int r = 0; r < rounds; ++r) {
            detached_s.push_back(bus_path(nullptr));
            trace::FlightRecorder recorder(std::size_t{1} << 16);
            attached_s.push_back(bus_path(&recorder));
            recorded = recorder.recorded();
        }
        const auto refs = static_cast<double>(trace.size());
        report("board path, recorder detached", median(detached_s), refs);
        report("board path, recorder attached", median(attached_s), refs);
        std::printf("  recorder sections: median of %d interleaved "
                    "rounds, %llu events recorded a round\n",
                    rounds, static_cast<unsigned long long>(recorded));
    }
    {
        workload::OltpParams oltp;
        oltp.threads = 8;
        oltp.dbBytes = 256 * MiB;
        workload::OltpWorkload wl(oltp);
        host::HostMachine machine(host::s7aConfig(), wl);
        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(machine.bus());
        bench::Stopwatch clock;
        machine.run(n);
        board.drainAll();
        report("full stack (workload+host+board), CPU refs",
               clock.seconds(), static_cast<double>(n));
    }
    {
        sim::DetailedParams params;
        params.cache = cache::CacheConfig{64 * MiB, 4, 128,
                                          cache::ReplacementPolicy::LRU};
        sim::DetailedCacheSimulator simulator(params);
        bench::Stopwatch clock;
        for (const auto &txn : trace)
            simulator.process(txn);
        simulator.finish();
        report("detailed simulator, bus refs", clock.seconds(),
               static_cast<double>(trace.size()));
    }

    if (!json_path.empty()) {
        char config[128];
        std::snprintf(config, sizeof(config),
                      "%llu refs, 64MiB/4-way/128B LRU board, 8 CPUs",
                      static_cast<unsigned long long>(n));
        bench::writeJsonResults(json_path, "microbench_throughput",
                                config, results, profile_json);
        std::printf("\nJSON results -> %s\n", json_path.c_str());
    }

    std::printf("\ncontext: the real board retires bus references at "
                "the bus's own pace\n(1e7/s effective at the paper's "
                "load); the software board path runs within\na small "
                "factor of that on one core, which is what makes "
                "scaled paper-shape\nreproductions minutes-long "
                "instead of days-long.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
