/**
 * @file
 * Workload replay-hot: a seeded, write- and sharing-heavy stimulus
 * stream fed through MemoriesBoard::feedBatch into a 2-node x 4-CPU
 * board whose tag slabs (2 x 2 MB / 128 B lines) fit in the host's own
 * caches. Nearly all time is the board's core loop — admission,
 * TagStore probe, protocol transitions; workload, host, bus and wire
 * are bypassed. Predicted movers: ies.feed_batch_ns_per_ref and
 * ies.drain_ns move bus_refs_per_s here.
 */

#include <algorithm>
#include <memory>

#include "bench.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "oraclecheck.hh"
#include "tracer.hh"

namespace perfbench
{

using namespace memories;

namespace
{

constexpr std::size_t chunk = 1024;

oracle::StimulusParams
hotStimulus(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.shareFraction = 0.5;
    // About half the tenures write: RWITM + DClaim + writebacks.
    p.pRead = 0.40;
    p.pIfetch = 0.04;
    p.pRwitm = 0.22;
    p.pDclaim = 0.14;
    p.pWriteback = 0.14;
    return p;
}

} // namespace

RunResult
runReplayHot(const Options &opts)
{
    RunResult result;
    const std::size_t refs = opts.tiny ? 20'000 : std::size_t{1} << 20;
    const oracle::StimulusParams params = hotStimulus(opts.seed, refs);
    const ies::BoardConfig config = ies::makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128, cache::ReplacementPolicy::LRU});

    result.config = {
        "workload: replay-hot (oracle::StimulusGen -> feedBatch)",
        "stimulus.refs_per_repetition: " + std::to_string(refs),
        "stimulus.cpus: " + std::to_string(params.cpus),
        "stimulus.share_fraction: " + std::to_string(params.shareFraction),
        "stimulus.footprint_lines_per_cpu: " +
            std::to_string(params.footprintLines),
        "stimulus.shared_lines: " + std::to_string(params.sharedLines),
        "stimulus.zipf_theta: " + std::to_string(params.zipfTheta),
        "stimulus.op_weights: read 0.40 ifetch 0.04 rwitm 0.22 dclaim "
        "0.14 writeback 0.14 writekill/flush/clean/kill/filtered default",
        "feed.chunk: " + std::to_string(chunk),
        "host: none (bypassed)",
    };
    describeBoard(config, "board", result.config);

    std::unique_ptr<Tracer> tracer;
    if (opts.trace)
        tracer = std::make_unique<Tracer>(calibrate(), Clock::now(), 0);

    std::vector<double> setup, plain, traced;
    RepeatCheck repeat;
    std::vector<bus::BusTransaction> stream;
    std::unique_ptr<ies::MemoriesBoard> board;
    std::uint64_t tracedRefs = 0;

    for (Schedule sched(opts, 3); sched.more(); sched.done()) {
        Tracer *t = sched.traced() ? tracer.get() : nullptr;
        board.reset();
        stream = {};

        const auto s0 = Clock::now();
        std::uint64_t directoryBytes = 0;
        {
            Scope span(t, Span::Setup);
            stream = oracle::StimulusGen(params).generate();
            const std::uint64_t a0 = threadAllocatedBytes();
            board = std::make_unique<ies::MemoriesBoard>(config);
            directoryBytes = threadAllocatedBytes() - a0;
        }
        setup.push_back(secondsSince(s0));

        const auto t0 = Clock::now();
        {
            Scope span(t, Span::Timed);
            for (std::size_t at = 0; at < stream.size(); at += chunk) {
                Scope feed(t, Span::IesFeedBatch);
                board->feedBatch(&stream[at],
                                 std::min(chunk, stream.size() - at));
            }
            Scope drain(t, Span::IesDrain);
            board->drainAll();
        }
        const double rate =
            static_cast<double>(stream.size()) / secondsSince(t0);
        (t ? traced : plain).push_back(rate);
        if (t)
            tracedRefs += stream.size();
        result.attempted += stream.size();

        Counts c;
        boardCounts(*board, c);
        c["cache.directory_bytes"] = directoryBytes;
        repeat.add(std::move(c), t != nullptr, result.problems);
    }
    const double peakRss = peakRssMiB();

    if (opts.corrupt == "stream")
        corruptStream(stream);
    for (auto &p : checkAgainstOracle(*board, stream, nullptr,
                                      opts.corrupt == "expect"))
        result.problems.push_back("oracle: " + p);

    result.notes.push_back(
        describeSamples("untraced repetitions", plain, "tenures/s"));
    if (opts.trace)
        result.notes.push_back(
            describeSamples("traced repetitions", traced, "tenures/s"));
    result.notes.push_back(describeSamples("set-up", setup, "s"));
    if (!opts.trace) {
        result.metrics = {
            {"bus_refs_per_s", fasterHalfMedian(plain, true)},
            {"setup_s", fasterHalfMedian(setup, false)},
            {"peak_rss_mb", peakRss},
        };
        return result;
    }

    const auto &feed = tracer->aggregate(Span::IesFeedBatch);
    const auto &drain = tracer->aggregate(Span::IesDrain);
    const auto &timed = tracer->aggregate(Span::Timed);
    result.metrics = repeat.first();
    result.metrics["ies.feed_batch_ns_per_ref"] =
        feed.inclusiveNs / static_cast<double>(tracedRefs);
    result.metrics["ies.drain_ns"] =
        drain.inclusiveNs / static_cast<double>(drain.calls);
    result.metrics["bench.trace_overhead"] = median(traced) / median(plain);
    result.metrics["bench.attributed_frac"] =
        (timed.selfNs + feed.selfNs + drain.selfNs) /
        (static_cast<double>(tracedRefs) / median(plain) * 1e9);
    describeSpans(*tracer, timed.inclusiveNs, result.notes);
    result.tracers.push_back(std::move(tracer));
    return result;
}

} // namespace perfbench
