/**
 * @file
 * Workload live-oltp: the path behind the paper's figures. A seeded
 * tpcc-like OltpWorkload (8 threads) drives an S7A HostMachine booted
 * with 1 MB direct-mapped L2s (Table 5's second column), whose 6xx bus
 * carries a Figure 4 four-config board through snoop/observeResult. The
 * board's geometries (2/4/8 MB 4-way and 16 MB 8-way, 128 B lines) are
 * the figure's 16 MB-1 GB axis scaled down the way the figure benches
 * scale theirs: with the full-size slabs the run is DRAM-bound, and on
 * a shared host its timings moved by 30-45 % between batches of runs
 * minutes apart. It exercises workload, host and bus plus the live
 * admission copy on read-mostly traffic. Predicted movers:
 * workload.next_ns_per_ref, host.self_ns_per_ref and
 * ies.snoop_ns_per_tenure move bus_refs_per_s here;
 * cache.directory_bytes moves peak_rss_mb and setup_s.
 */

#include <memory>

#include "bench.hh"
#include "host/machine.hh"
#include "ies/board.hh"
#include "oraclecheck.hh"
#include "tracer.hh"
#include "workload/oltp.hh"

namespace perfbench
{

using namespace memories;

namespace
{

/** Bench-side Workload wrapper timing next() (traced repetitions). */
class TimedWorkload : public workload::Workload
{
  public:
    explicit TimedWorkload(workload::Workload &inner) : inner_(inner) {}

    /** Spans are recorded only while a tracer is set (timed region). */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    workload::MemRef next(unsigned tid) override
    {
        Scope span(tracer_, Span::WorkloadNext);
        return inner_.next(tid);
    }
    unsigned threads() const override { return inner_.threads(); }
    std::uint64_t footprintBytes() const override
    {
        return inner_.footprintBytes();
    }
    const std::string &name() const override { return inner_.name(); }
    double refsPerInstruction() const override
    {
        return inner_.refsPerInstruction();
    }

  private:
    workload::Workload &inner_;
    Tracer *tracer_ = nullptr;
};

/**
 * Forwarding snooper/observer attached in place of plugInto: times the
 * board's public snoop() and observeResult() (traced repetitions).
 */
class TimedBoardTap : public bus::BusSnooper, public bus::BusObserver
{
  public:
    explicit TimedBoardTap(ies::MemoriesBoard &board) : board_(board) {}

    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    bus::SnoopResponse snoop(const bus::BusTransaction &txn) override
    {
        Scope span(tracer_, Span::IesSnoop);
        return board_.snoop(txn);
    }
    std::string snooperName() const override
    {
        return board_.snooperName();
    }
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override
    {
        Scope span(tracer_, Span::IesObserve);
        board_.observeResult(txn, combined);
    }

  private:
    ies::MemoriesBoard &board_;
    Tracer *tracer_ = nullptr;
};

constexpr std::uint64_t slice = 1024; //!< CPU refs per HostMachine::run

/** One repetition's objects, built in set-up order. */
struct Rig
{
    workload::OltpWorkload oltp;
    std::unique_ptr<TimedWorkload> timedWorkload;
    std::unique_ptr<host::HostMachine> machine;
    std::unique_ptr<ies::MemoriesBoard> board;
    std::unique_ptr<TimedBoardTap> tap;
    std::uint64_t directoryBytes = 0;

    Rig(const workload::OltpParams &params,
        const host::HostConfig &host_config,
        const ies::BoardConfig &config, bool traced)
        : oltp(params)
    {
        workload::Workload *wl = &oltp;
        if (traced) {
            timedWorkload = std::make_unique<TimedWorkload>(oltp);
            wl = timedWorkload.get();
        }
        machine = std::make_unique<host::HostMachine>(host_config, *wl);
        const std::uint64_t a0 = threadAllocatedBytes();
        board = std::make_unique<ies::MemoriesBoard>(config);
        directoryBytes = threadAllocatedBytes() - a0;
        if (traced) {
            tap = std::make_unique<TimedBoardTap>(*board);
            machine->bus().attach(tap.get());
            machine->bus().attachObserver(tap.get());
        } else {
            board->plugInto(machine->bus());
        }
    }

    void setTracer(Tracer *tracer)
    {
        if (timedWorkload)
            timedWorkload->setTracer(tracer);
        if (tap)
            tap->setTracer(tracer);
    }
};

/**
 * Host, bus and board counts after a repetition: like the board's
 * counters, they cover the whole repetition, warm-up included.
 */
Counts
rigCounts(const Rig &rig)
{
    Counts c;
    boardCounts(*rig.board, c);
    c["cache.directory_bytes"] = rig.directoryBytes;
    const host::HierarchyStats h = rig.machine->totalStats();
    const bus::BusStats &b = rig.machine->bus().stats();
    c["host.l2_miss_ratio"] =
        h.refs ? static_cast<double>(h.l2Misses) /
                     static_cast<double>(h.refs)
               : 0.0;
    c["host.writebacks"] = h.writebacks;
    c["bus.tenures"] = b.tenures;
    c["bus.tenures_per_cpu_ref"] =
        static_cast<double>(b.tenures) /
        static_cast<double>(rig.machine->refsExecuted());
    c["bus.retries"] = b.retries;
    c["bus.data_utilization"] =
        b.dataUtilization(rig.machine->bus().now());
    return c;
}

} // namespace

RunResult
runLiveOltp(const Options &opts)
{
    RunResult result;
    const std::uint64_t warmRefs = opts.tiny ? 8192 : 524'288;
    const std::uint64_t timedRefs = opts.tiny ? 16384 : 1'048'576;

    workload::OltpParams params;
    params.threads = 8;
    params.dbBytes = 512 * MiB;
    params.seed = opts.seed;
    const ies::BoardConfig config = ies::makeMultiConfigBoard(
        {cache::CacheConfig{2 * MiB, 4, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{4 * MiB, 4, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{8 * MiB, 4, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{16 * MiB, 8, 128,
                            cache::ReplacementPolicy::LRU}},
        8);
    const host::HostConfig hostConfig = host::s7aConfig1MbDirectMapped();

    result.config = {
        "workload: live-oltp (OltpWorkload -> HostMachine -> Bus6xx -> "
        "board snoop/observeResult)",
        "oltp.threads: " + std::to_string(params.threads),
        "oltp.db_bytes: " + std::to_string(params.dbBytes),
        "oltp.page_bytes: " + std::to_string(params.pageBytes),
        "oltp.shared_frac: " + std::to_string(params.sharedFrac),
        "oltp.shared_pool_frac: " + std::to_string(params.sharedPoolFrac),
        "oltp.theta: " + std::to_string(params.theta),
        "oltp.write_frac: " + std::to_string(params.writeFrac),
        "oltp.refs_per_page_visit: " +
            std::to_string(params.refsPerPageVisit),
        "oltp.journaling: off",
        "host.cpus: " + std::to_string(hostConfig.numCpus),
        "host.l1: " + hostConfig.l1.describe(),
        "host.l2: " + hostConfig.l2->describe(),
        "host.cycles_per_ref: " + std::to_string(hostConfig.cyclesPerRef),
        "host.seed: " + std::to_string(hostConfig.seed),
        "run.warmup_cpu_refs (in setup_s): " + std::to_string(warmRefs),
        "run.timed_cpu_refs: " + std::to_string(timedRefs),
        "run.slice_cpu_refs: " + std::to_string(slice),
    };
    describeBoard(config, "board", result.config);

    std::unique_ptr<Tracer> tracer;
    if (opts.trace)
        tracer = std::make_unique<Tracer>(calibrate(), Clock::now(), 0);

    std::vector<double> setup, plain, traced;
    RepeatCheck repeat;
    std::uint64_t tracedRefs = 0, tracedTenures = 0;

    // One repetition: set-up (construction + warm-up) then the timed
    // region; @p capture rides along only on the untimed check pass.
    auto repetition = [&](Tracer *t, CommitCapture *capture) {
        const auto s0 = Clock::now();
        std::unique_ptr<Rig> rig;
        {
            Scope span(t, Span::Setup);
            rig = std::make_unique<Rig>(params, hostConfig, config,
                                        t != nullptr);
            if (capture)
                rig->machine->bus().attachObserver(capture);
            rig->machine->run(warmRefs);
        }
        const double setupS = secondsSince(s0);

        const std::uint64_t tenures0 = rig->machine->bus().stats().tenures;
        const auto t0 = Clock::now();
        rig->setTracer(t);
        {
            Scope span(t, Span::Timed);
            for (std::uint64_t done = 0; done < timedRefs; done += slice) {
                Scope run(t, Span::HostRun);
                rig->machine->run(slice);
            }
            rig->setTracer(nullptr);
            Scope drain(t, Span::IesDrain);
            rig->board->drainAll();
        }
        const double seconds = secondsSince(t0);
        const std::uint64_t tenures =
            rig->machine->bus().stats().tenures - tenures0;
        Counts c = rigCounts(*rig);
        if (capture) {
            rig->machine->bus().detachObserver(capture);
            if (opts.corrupt == "stream")
                corruptStream(capture->committed);
            for (auto &p : checkAgainstOracle(*rig->board,
                                              capture->committed,
                                              &capture->retried,
                                              opts.corrupt == "expect"))
                result.problems.push_back("oracle: " + p);
        } else {
            setup.push_back(setupS);
            (t ? traced : plain)
                .push_back(static_cast<double>(tenures) / seconds);
            if (t) {
                tracedRefs += timedRefs;
                tracedTenures += tenures;
            }
        }
        result.attempted += warmRefs + timedRefs;
        return c;
    };

    for (Schedule sched(opts, 3); sched.more(); sched.done()) {
        Tracer *t = sched.traced() ? tracer.get() : nullptr;
        repeat.add(repetition(t, nullptr), t != nullptr, result.problems);
    }
    const double peakRss = peakRssMiB();

    // The output check: one more, untimed repetition with a commit
    // capture on the bus; its counts must match the timed ones too.
    CommitCapture capture;
    repeat.add(repetition(nullptr, &capture), false, result.problems);

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

    const auto &next = tracer->aggregate(Span::WorkloadNext);
    const auto &run = tracer->aggregate(Span::HostRun);
    const auto &snoop = tracer->aggregate(Span::IesSnoop);
    const auto &observe = tracer->aggregate(Span::IesObserve);
    const auto &drain = tracer->aggregate(Span::IesDrain);
    const auto &timed = tracer->aggregate(Span::Timed);
    const double refs = static_cast<double>(tracedRefs);
    result.metrics = repeat.first();
    result.metrics["workload.next_ns_per_ref"] = next.inclusiveNs / refs;
    result.metrics["host.self_ns_per_ref"] = run.selfNs / refs;
    result.metrics["ies.snoop_ns_per_tenure"] =
        (snoop.inclusiveNs + observe.inclusiveNs) /
        static_cast<double>(tracedTenures);
    result.metrics["ies.drain_ns"] =
        drain.inclusiveNs / static_cast<double>(drain.calls);
    result.metrics["bench.trace_overhead"] = median(traced) / median(plain);
    result.metrics["bench.attributed_frac"] =
        (timed.selfNs + next.selfNs + run.selfNs + snoop.selfNs +
         observe.selfNs + drain.selfNs) /
        (static_cast<double>(tracedTenures) / median(plain) * 1e9);
    describeSpans(*tracer, timed.inclusiveNs, result.notes);
    result.tracers.push_back(std::move(tracer));
    return result;
}

} // namespace perfbench
