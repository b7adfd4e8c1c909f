/**
 * @file
 * Workload serve-ingest: an in-process IESSERV daemon on an AF_UNIX
 * socket and two closed-loop ServiceClients, each streaming its own
 * seeded stimulus in paced mode as 256-record feed lines to a small
 * 2-node session configured like bench/loadtest's. Per-reference cost
 * is dominated by the service layer (wire decode, session, credit
 * pacing), so it is the control for replay-hot: a core-loop gain should
 * not show here. Predicted movers: service.wire_ns_per_ref moves
 * bus_refs_per_s (and the ingest latency, service.feed_p50_us and
 * service.feed_p99_us) here only; service.session_setup_ms moves
 * setup_s.
 *
 * Every thread of a repetition runs on one CPU, and successive
 * repetitions rotate over the CPUs the process may use. The host this
 * was tuned on switched between a fast and a slow mode, for seconds at a
 * time; in the slow mode this workload spent about 45% more user time on
 * the same records, far more than the cache-resident core loop does. A
 * run therefore takes many short repetitions and reports the median of
 * the fastest quarter, which reads the fast mode as long as a run spent a
 * quarter of its repetitions there.
 */

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <thread>

#include <sched.h>
#include <unistd.h>

#include "bench.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "oraclecheck.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "trace/record.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace memories;

namespace
{

constexpr std::size_t clients = 2;
constexpr std::size_t feedBatch = 256;
/** Share of the repetitions bus_refs_per_s takes the median of. */
constexpr double fastShare = 0.25;

const std::vector<std::string> sessionLines = {
    "node 0 cache 2MB 4 128B LRU", "node 0 cpus 0,1,2,3",
    "node 1 cache 2MB 4 128B LRU", "node 1 cpus 4,5,6,7",
    "buffer 64",                   "throughput 42",
    "init",
};

/** The in-process twin of the session the lines above configure. */
ies::BoardConfig
sessionBoard()
{
    ies::BoardConfig config = ies::makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128, cache::ReplacementPolicy::LRU});
    config.bufferEntries = 64;
    config.sdramThroughputPercent = 42;
    return config;
}

/** "name value" lines (counters, stream status) into a map. */
std::map<std::string, double>
parsePairs(const service::Reply &reply, const std::string &prefix)
{
    std::map<std::string, double> out;
    for (const std::string &line : reply.lines) {
        std::istringstream in(line);
        std::string key;
        double value = 0;
        while (in >> key >> value)
            out[prefix + key] = value;
    }
    return out;
}

/**
 * What the session's board sees: the stream after the wire's pack /
 * hex-encode / hex-decode / unpack round trip (cycle deltas chained).
 */
std::vector<bus::BusTransaction>
wireRoundTrip(const std::vector<bus::BusTransaction> &txns)
{
    std::vector<bus::BusTransaction> out;
    out.reserve(txns.size());
    Cycle packPrev = 0, unpackPrev = 0;
    for (const bus::BusTransaction &txn : txns) {
        const std::string hex =
            service::encodeRecordHex(trace::BusRecord::pack(txn, packPrev).raw);
        packPrev = txn.cycle;
        const auto raw = service::decodeRecordHex(hex);
        out.push_back(trace::BusRecord(raw.value_or(0)).unpack(unpackPrev));
        unpackPrev = out.back().cycle;
    }
    return out;
}

/**
 * The wire stream fed in process through feedBatch, 256 at a time.
 * @p directory_bytes receives what constructing the board allocated.
 */
std::unique_ptr<ies::MemoriesBoard>
emulateInProcess(const std::vector<bus::BusTransaction> &txns,
                 std::uint64_t *directory_bytes = nullptr)
{
    const std::uint64_t a0 = threadAllocatedBytes();
    auto board = std::make_unique<ies::MemoriesBoard>(sessionBoard());
    if (directory_bytes)
        *directory_bytes = threadAllocatedBytes() - a0;
    for (std::size_t at = 0; at < txns.size(); at += feedBatch)
        board->feedBatch(&txns[at], std::min(feedBatch, txns.size() - at));
    board->drainAll();
    return board;
}

/**
 * Confines the calling thread, and every thread it or its descendants
 * start while the guard lives, to the @p index-th CPU (modulo their
 * count) it may run on; restores the previous mask on destruction. On a
 * virtualised host a wake-up across vCPUs costs whatever the hypervisor
 * makes it cost, and that swung this workload's throughput by more than
 * 2x between runs; on one CPU every client/session hand-off is a local
 * context switch.
 */
class SingleCpu
{
  public:
    explicit SingleCpu(std::size_t index)
    {
        CPU_ZERO(&saved_);
        if (sched_getaffinity(0, sizeof saved_, &saved_) != 0)
            return;
        index %= static_cast<std::size_t>(CPU_COUNT(&saved_));
        for (int c = 0; c < CPU_SETSIZE; ++c) {
            if (CPU_ISSET(c, &saved_) && index-- == 0) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(c, &one);
                if (sched_setaffinity(0, sizeof one, &one) == 0)
                    cpu_ = c;
                return;
            }
        }
    }
    ~SingleCpu()
    {
        if (cpu_ >= 0)
            sched_setaffinity(0, sizeof saved_, &saved_);
    }
    SingleCpu(const SingleCpu &) = delete;
    SingleCpu &operator=(const SingleCpu &) = delete;

  private:
    cpu_set_t saved_;
    int cpu_ = -1;
};

/** One client's share of a repetition. */
struct ClientRun
{
    std::unique_ptr<service::ServiceClient> client;
    service::FeedTotals totals;
    std::vector<double> latencyUs;
    std::string error;
};

} // namespace

RunResult
runServeIngest(const Options &opts)
{
    RunResult result;
    const std::size_t refs = opts.tiny ? 4096 : 64'000;
    std::vector<oracle::StimulusParams> params(clients);
    for (std::size_t k = 0; k < clients; ++k) {
        params[k].seed = opts.seed + 0x9e3779b97f4a7c15ull * (k + 1);
        params[k].count = refs;
    }
    const std::string dir =
        opts.outDir + "/serve-" + std::to_string(::getpid());

    result.config = {
        "workload: serve-ingest (ServiceClient x2 -> AF_UNIX -> Daemon "
        "-> session board)",
        "service.clients: " + std::to_string(clients) +
            " closed-loop, one thread each",
        "service.cpu: every thread of repetition r pinned to the "
        "(r mod nproc)-th usable cpu",
        "service.refs_per_client_per_repetition: " + std::to_string(refs),
        "service.feed_batch: " + std::to_string(feedBatch),
        "service.pace: on (paced, back-pressured)",
        "service.daemon: maxSessions 4, maxBatch 4096, socket under " + dir,
        "stimulus: oracle::StimulusParams defaults, seed per client "
        "derived from --seed",
    };
    for (const std::string &line : sessionLines)
        result.config.push_back("session: " + line);
    describeBoard(sessionBoard(), "session_twin", result.config);

    TraceCost cost;
    std::vector<std::unique_ptr<Tracer>> tracers;
    if (opts.trace) {
        cost = calibrate();
        const auto epoch = Clock::now();
        for (std::uint32_t i = 0; i <= clients; ++i)
            tracers.push_back(std::make_unique<Tracer>(cost, epoch, i));
    }

    std::vector<double> setup, plain, traced;
    FeedLatencies feedUs;
    RepeatCheck repeat;
    std::vector<std::vector<bus::BusTransaction>> streams(clients);
    std::vector<std::map<std::string, double>> daemonCounters(clients);
    std::uint64_t tracedAccepted = 0, tracedEmulated = 0;
    std::size_t rep = 0;

    for (Schedule sched(opts, 3); sched.more(); sched.done()) {
        const bool isTraced = sched.traced();
        const SingleCpu pin(rep++);
        Tracer *t = isTraced ? tracers[0].get() : nullptr;
        std::vector<ClientRun> runs(clients);

        const auto s0 = Clock::now();
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        service::DaemonOptions dopts;
        dopts.socketPath = dir + "/d.sock";
        dopts.stateDir = dir + "/state";
        dopts.maxSessions = clients + 2;
        service::Daemon daemon(dopts);
        {
            Scope span(t, Span::Setup);
            for (std::size_t k = 0; k < clients; ++k)
                streams[k] = oracle::StimulusGen(params[k]).generate();
            {
                Scope start(t, Span::ServiceStart);
                daemon.start();
            }
            for (std::size_t k = 0; k < clients; ++k) {
                Tracer *ct = isTraced ? tracers[k + 1].get() : nullptr;
                Scope session(ct, Span::ServiceSession);
                runs[k].client = std::make_unique<service::ServiceClient>();
                if (!runs[k].client->connect(dopts.socketPath, 5000)) {
                    runs[k].error = "connect failed";
                    continue;
                }
                for (const std::string &line : sessionLines) {
                    if (!runs[k].client->exec(line).ok) {
                        runs[k].error = "session rejected: " + line;
                        break;
                    }
                }
            }
        }
        setup.push_back(secondsSince(s0));

        const auto t0 = Clock::now();
        {
            Scope span(t, Span::Timed);
            std::vector<std::thread> threads;
            for (std::size_t k = 0; k < clients; ++k) {
                threads.emplace_back([&, k] {
                    ClientRun &r = runs[k];
                    if (!r.error.empty())
                        return;
                    Tracer *ct = isTraced ? tracers[k + 1].get() : nullptr;
                    {
                        Scope feed(ct, Span::ServiceFeedAll);
                        r.totals = r.client->feedAll(streams[k], feedBatch,
                                                     &r.latencyUs);
                    }
                    Scope drain(ct, Span::ServiceDrain);
                    if (!r.client->exec("drain").ok)
                        r.error = "drain failed";
                });
            }
            for (auto &thread : threads)
                thread.join();
        }
        const double seconds = secondsSince(t0);

        Counts c;
        std::uint64_t accepted = 0;
        if (!t)
            feedUs.beginRepetition();
        for (std::size_t k = 0; k < clients; ++k) {
            ClientRun &r = runs[k];
            const std::string p = "client" + std::to_string(k) + ".";
            result.attempted += refs;
            result.failed += refs - std::min<std::uint64_t>(
                                        refs, r.totals.accepted);
            accepted += r.totals.accepted;
            if (!r.error.empty()) {
                result.problems.push_back(p + "error: " + r.error);
                continue;
            }
            c[p + "accepted"] = r.totals.accepted;
            c[p + "feed_lines"] = r.totals.feedLines;
            c[p + "resends"] = r.totals.resends;
            daemonCounters[k] =
                parsePairs(r.client->exec("counters"), "");
            for (const auto &[name, value] :
                 parsePairs(r.client->exec("stream status"), p + "stream."))
                c[name] = value;
            for (const auto &[name, value] : daemonCounters[k])
                c[p + "raw." + name] = value;
            if (!t) {
                for (const double us : r.latencyUs)
                    feedUs.add(us);
            }
            r.client->close();
        }
        daemon.stop();
        std::filesystem::remove_all(dir);
        (t ? traced : plain)
            .push_back(static_cast<double>(accepted) / seconds);
        if (t) {
            tracedAccepted += accepted;
            // The service's emulation share: the same streams through
            // the wire codec, then fed in process into an identical
            // board (both outside the timed region).
            for (std::size_t k = 0; k < clients; ++k) {
                std::vector<bus::BusTransaction> wire;
                {
                    Scope codec(t, Span::ServiceCodec);
                    wire = wireRoundTrip(streams[k]);
                }
                Scope emulate(t, Span::ServiceEmulate);
                emulateInProcess(wire);
                tracedEmulated += wire.size();
            }
        }
        repeat.add(std::move(c), isTraced, result.problems);
    }
    const double peakRss = peakRssMiB();

    // Output check: the daemon's final counters equal an in-process
    // twin fed the same wire stream, and the twin equals the oracle.
    Counts layerCounts; // board-layer counts, from client 0's twin
    for (std::size_t k = 0; k < clients; ++k) {
        const std::string p = "client" + std::to_string(k) + ": ";
        auto wire = wireRoundTrip(streams[k]);
        std::uint64_t directoryBytes = 0;
        auto twin = emulateInProcess(wire, &directoryBytes);
        Counts twinCounts;
        boardCounts(*twin, twinCounts);
        twinCounts["cache.directory_bytes"] = directoryBytes;
        for (const auto &[name, value] : daemonCounters[k]) {
            const auto it = twinCounts.find("raw." + name);
            if (it == twinCounts.end() || it->second != value) {
                result.problems.push_back(p + "daemon counter " + name +
                                          " differs from the in-process "
                                          "twin");
                break;
            }
        }
        if (daemonCounters[k].empty())
            result.problems.push_back(p + "no daemon counters");
        if (opts.corrupt == "stream")
            corruptStream(wire);
        for (auto &problem : checkAgainstOracle(
                 *twin, wire, nullptr, opts.corrupt == "expect"))
            result.problems.push_back(p + "oracle: " + problem);
        if (k == 0)
            layerCounts = std::move(twinCounts);
    }

    result.notes.push_back(
        describeSamples("untraced repetitions", plain, "records/s"));
    if (opts.trace)
        result.notes.push_back(
            describeSamples("traced repetitions", traced, "records/s"));
    result.notes.push_back(describeSamples("set-up", setup, "s"));
    if (!opts.trace) {
        result.metrics = {
            {"bus_refs_per_s", fastestShareMedian(plain, true, fastShare)},
            {"setup_s", fasterHalfMedian(setup, false)},
            {"peak_rss_mb", peakRss},
        };
        return result;
    }

    Tracer merged(cost, Clock::now(), 0);
    for (const auto &tr : tracers)
        merged.merge(*tr);
    const auto &feedAll = merged.aggregate(Span::ServiceFeedAll);
    const auto &drain = merged.aggregate(Span::ServiceDrain);
    const auto &session = merged.aggregate(Span::ServiceSession);
    const auto &emulate = merged.aggregate(Span::ServiceEmulate);
    const auto &codec = merged.aggregate(Span::ServiceCodec);
    const auto &timed = merged.aggregate(Span::Timed);
    Counts counts = repeat.first(); // a failed client has no entries
    double feedLines = 0, resends = 0, backpressure = 0;
    for (std::size_t k = 0; k < clients; ++k) {
        const std::string p = "client" + std::to_string(k) + ".";
        feedLines += counts[p + "feed_lines"];
        resends += counts[p + "resends"];
        backpressure += counts[p + "stream.backpressure"];
    }
    const double emulateNs =
        emulate.inclusiveNs / static_cast<double>(tracedEmulated);
    result.metrics = layerCounts;
    // Ingest latency comes from this run's untraced repetitions.
    result.metrics["service.feed_p50_us"] =
        feedUs.percentileOverRepetitions(50);
    result.metrics["service.feed_p99_us"] =
        feedUs.percentileOverRepetitions(99);
    result.notes.push_back("feed latency samples: " +
                           std::to_string(feedUs.samples()) +
                           " untraced feed requests of up to " +
                           std::to_string(feedBatch) + " records");
    result.metrics["service.emulate_ns_per_ref"] = emulateNs;
    result.metrics["service.wire_ns_per_ref"] =
        feedAll.inclusiveNs / static_cast<double>(tracedAccepted) -
        emulateNs;
    result.metrics["service.codec_ns_per_ref"] =
        codec.inclusiveNs / static_cast<double>(tracedEmulated);
    result.metrics["service.feed_lines"] = feedLines;
    result.metrics["service.resends"] = resends;
    result.metrics["service.backpressure_events"] = backpressure;
    result.metrics["service.resend_frac"] = resends / feedLines;
    result.metrics["service.session_setup_ms"] =
        session.inclusiveNs / static_cast<double>(session.calls) / 1e6;
    result.metrics["bench.trace_overhead"] = median(traced) / median(plain);
    result.metrics["bench.attributed_frac"] =
        (feedAll.selfNs + drain.selfNs) /
        (clients * static_cast<double>(tracedAccepted) / median(plain) *
         1e9);
    describeSpans(merged, timed.inclusiveNs * clients, result.notes);
    result.tracers = std::move(tracers);
    return result;
}

} // namespace perfbench
