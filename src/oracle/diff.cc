#include "oracle/diff.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>

#include "bus/bus6xx.hh"
#include "checkpoint/file.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "trace/tracefile.hh"

namespace memories::oracle
{

namespace
{

std::string
fmtTxn(const bus::BusTransaction &txn)
{
    std::ostringstream os;
    os << "#" << txn.traceId << " " << bus::busOpName(txn.op)
       << " addr=0x" << std::hex << txn.addr << std::dec << " cpu="
       << static_cast<unsigned>(txn.cpu) << " cycle=" << txn.cycle;
    return os.str();
}

std::string
fmtRetirement(const RefRetirement &r)
{
    std::ostringstream os;
    os << "#" << r.traceId << " " << bus::busOpName(r.op) << " addr=0x"
       << std::hex << r.addr << std::dec << " cpu="
       << static_cast<unsigned>(r.cpu) << " retired@" << r.retireCycle;
    return os.str();
}

/** Every Counter40 the production board exposes, by name. */
std::map<std::string, std::uint64_t>
productionCounters(const ies::MemoriesBoard &board)
{
    std::map<std::string, std::uint64_t> all;
    const auto collect = [&all](const CounterSample &s) {
        all[std::string(s.name)] = s.value;
    };
    board.globalCounters().snapshot(collect);
    for (std::size_t i = 0; i < board.numNodes(); ++i)
        board.node(i).counters().snapshot(collect);
    return all;
}

} // namespace

std::string
DiffReport::describe() const
{
    std::ostringstream os;
    if (!diverged) {
        os << "boards agree\n";
        return os.str();
    }
    os << "DIVERGENCE: " << summary << "\n";
    for (const std::string &d : details)
        os << "  " << d << "\n";
    if (!flightDump.empty()) {
        constexpr std::size_t tail = 16;
        const std::size_t from =
            flightDump.size() > tail ? flightDump.size() - tail : 0;
        os << "  flight recorder (last " << (flightDump.size() - from)
           << " of " << flightDump.size() << " events):\n";
        for (std::size_t i = from; i < flightDump.size(); ++i)
            os << "    " << flightDump[i].describe() << "\n";
    }
    return os.str();
}

namespace
{

/** The production feeds every comparison drives. */
enum class Leg
{
    Serial, //!< feedCommitted per tenure
    Batch,  //!< feedBatch in batchChunk-tenure chunks, no recorder
    Bus,    //!< live Bus6xx, the board its only snooper
};

constexpr std::size_t batchChunk = 256;

/** Seed handed to both boards (Random-policy victim draws). */
constexpr std::uint64_t boardSeed = 1;

const char *
legName(Leg leg)
{
    switch (leg) {
      case Leg::Serial: return "serial";
      case Leg::Batch:  return "batch";
      case Leg::Bus:    return "bus";
    }
    return "?";
}

/** Records every tenure a bus completes, as the bus stamped it. */
class TenureCapture final : public bus::BusObserver
{
  public:
    void
    observeResult(const bus::BusTransaction &txn,
                  bus::SnoopResponse combined) override
    {
        tenures.push_back(txn);
        completed.push_back(combined != bus::SnoopResponse::Retry);
    }

    std::vector<bus::BusTransaction> tenures;
    std::vector<bool> completed;
};

/** True when @p config's nodes form two or more target machines. */
bool
multiMachine(const ies::BoardConfig &config)
{
    for (const ies::NodeConfig &node : config.nodes) {
        if (node.targetMachine != config.nodes.front().targetMachine)
            return true;
    }
    return false;
}

/**
 * Diff one leg into @p report: when @p checkpoint_path is non-null
 * both boards resume from it (counters cleared, so the diff covers the
 * resumed stream only) before the stream is fed. @p recorded attaches
 * a flight recorder to the production board (never on the batch leg).
 */
void
diffLeg(Leg leg, bool recorded, const ies::BoardConfig &config,
        const std::string *checkpoint_path,
        const std::vector<bus::BusTransaction> &stream,
        const DiffOptions &opts, DiffReport &report)
{
    const std::string tag =
        std::string(legName(leg)) +
        (recorded || leg == Leg::Batch ? "" : "-lanes");
    bool leg_diverged = false;
    auto note = [&](std::string msg) {
        msg = tag + " leg: " + msg;
        if (!report.diverged)
            report.summary = msg;
        report.diverged = true;
        leg_diverged = true;
        if (report.details.size() < opts.maxDetails)
            report.details.push_back(std::move(msg));
    };

    auto board = ies::MemoriesBoard::make(config, boardSeed);
    const ies::BoardConfig &ref_config =
        opts.refConfig ? *opts.refConfig : config;
    RefBoard ref(ref_config, boardSeed, opts.mutation);
    if (checkpoint_path) {
        board->loadState(*checkpoint_path);
        board->clearCounters();
        ref.restoreFromCheckpoint(
            ckpt::CheckpointImage::fromFile(*checkpoint_path));
    }

    // The batch leg runs detached, so it drives the hook-free
    // instantiation the benchmarks and the service run; the other legs
    // record, for the retirement order and the divergence dump, unless
    // they run as lane legs. Size the recorder to hold the whole run,
    // up to 2^20 events: each tenure produces well under 16 events.
    std::optional<trace::FlightRecorder> recorder;
    if (recorded && leg != Leg::Batch) {
        const auto capacity = std::min<std::size_t>(
            ceilPowerOf2(16 * stream.size() + 1024), std::size_t{1} << 20);
        recorder.emplace(capacity);
        board->attachFlightRecorder(*recorder);
    }

    auto noteAcceptance = [&note, &ref](const bus::BusTransaction &txn,
                                        bool prod_ok) {
        const bool ref_ok = ref.feedCommitted(txn);
        if (prod_ok != ref_ok) {
            note("acceptance of " + fmtTxn(txn) + ": production " +
                 (prod_ok ? "accepted" : "rejected") + ", reference " +
                 (ref_ok ? "accepted" : "rejected"));
        }
    };
    switch (leg) {
      case Leg::Serial:
        for (const bus::BusTransaction &txn : stream)
            noteAcceptance(txn, board->feedCommitted(txn));
        break;
      case Leg::Batch: {
        bool flags[batchChunk];
        for (std::size_t at = 0; at < stream.size(); at += batchChunk) {
            const std::size_t n =
                std::min(batchChunk, stream.size() - at);
            board->feedBatch(&stream[at], n, flags);
            for (std::size_t i = 0; i < n; ++i)
                noteAcceptance(stream[at + i], flags[i]);
        }
        break;
      }
      case Leg::Bus: {
        bus::Bus6xx bus;
        board->plugInto(bus);
        TenureCapture capture;
        bus.attachObserver(&capture);
        for (const bus::BusTransaction &txn : stream) {
            bus.advanceTo(txn.cycle);
            bus.issue(txn);
        }
        board->unplug(bus);
        for (std::size_t i = 0; i < capture.tenures.size(); ++i)
            noteAcceptance(capture.tenures[i], capture.completed[i]);
        break;
      }
    }
    board->drainAll();
    ref.drainAll();

    // --- Counter40 values, both directions. ---
    const auto prod_counters = productionCounters(*board);
    const auto ref_counters = ref.counters();
    for (const auto &[name, prod_value] : prod_counters) {
        const auto it = ref_counters.find(name);
        if (it == ref_counters.end()) {
            note("counter '" + name + "' exists only in production");
        } else if (it->second != prod_value) {
            note("counter '" + name + "': production " +
                 std::to_string(prod_value) + ", reference " +
                 std::to_string(it->second));
        }
    }
    for (const auto &[name, ref_value] : ref_counters) {
        (void)ref_value;
        if (!prod_counters.count(name))
            note("counter '" + name + "' exists only in the reference");
    }

    // --- Final directory contents of every node. ---
    const std::size_t nodes =
        board->numNodes() < ref.numNodes() ? board->numNodes()
                                           : ref.numNodes();
    if (board->numNodes() != ref.numNodes()) {
        note("node count: production " +
             std::to_string(board->numNodes()) + ", reference " +
             std::to_string(ref.numNodes()));
    }
    for (std::size_t n = 0; n < nodes; ++n) {
        const auto prod_dir = board->node(n).directorySnapshot();
        const auto ref_dir = ref.directorySnapshot(n);
        if (prod_dir.size() != ref_dir.size()) {
            note("node " + std::to_string(n) +
                 " directory occupancy: production " +
                 std::to_string(prod_dir.size()) + ", reference " +
                 std::to_string(ref_dir.size()));
        }
        const std::size_t lines =
            prod_dir.size() < ref_dir.size() ? prod_dir.size()
                                             : ref_dir.size();
        for (std::size_t l = 0; l < lines; ++l) {
            if (prod_dir[l].first != ref_dir[l].first ||
                prod_dir[l].second != ref_dir[l].second) {
                std::ostringstream os;
                os << "node " << n << " directory line " << l
                   << ": production (0x" << std::hex
                   << prod_dir[l].first << std::dec << ", state "
                   << static_cast<unsigned>(prod_dir[l].second)
                   << "), reference (0x" << std::hex << ref_dir[l].first
                   << std::dec << ", state "
                   << static_cast<unsigned>(ref_dir[l].second) << ")";
                note(os.str());
                break; // one mismatched line per node is enough detail
            }
        }
    }

    // --- Retirement order, from the production flight recorder. ---
    if (recorder) {
        std::vector<RefRetirement> prod_ret;
        for (const trace::LifecycleEvent &ev : recorder->snapshot()) {
            if (ev.kind == trace::EventKind::Retire)
                prod_ret.push_back({ev.traceId, ev.addr, ev.op, ev.cpu,
                                    ev.cycle});
        }
        const auto &ref_ret = ref.retirements();
        if (recorder->overwritten() == 0) {
            if (prod_ret.size() != ref_ret.size()) {
                note("retirement count: production " +
                     std::to_string(prod_ret.size()) + ", reference " +
                     std::to_string(ref_ret.size()));
            }
            const std::size_t n = prod_ret.size() < ref_ret.size()
                                      ? prod_ret.size()
                                      : ref_ret.size();
            for (std::size_t i = 0; i < n; ++i) {
                if (!(prod_ret[i] == ref_ret[i])) {
                    note("retirement " + std::to_string(i) +
                         ": production " + fmtRetirement(prod_ret[i]) +
                         ", reference " + fmtRetirement(ref_ret[i]));
                    break;
                }
            }
        } else if (prod_ret.size() <= ref_ret.size()) {
            // The ring wrapped: only the production tail survives, so
            // align it against the reference tail (totals are
            // cross-checked by the retired counter below).
            const std::size_t offset = ref_ret.size() - prod_ret.size();
            for (std::size_t i = 0; i < prod_ret.size(); ++i) {
                if (!(prod_ret[i] == ref_ret[offset + i])) {
                    note("retirement tail " + std::to_string(i) +
                         ": production " + fmtRetirement(prod_ret[i]) +
                         ", reference " +
                         fmtRetirement(ref_ret[offset + i]));
                    break;
                }
            }
        }
    }

    // --- Transaction-buffer bookkeeping. ---
    if (board->bufferRetired() != ref.bufferRetired()) {
        note("buffer retired: production " +
             std::to_string(board->bufferRetired()) + ", reference " +
             std::to_string(ref.bufferRetired()));
    }
    if (board->bufferHighWater() != ref.bufferHighWater()) {
        note("buffer high-water: production " +
             std::to_string(board->bufferHighWater()) + ", reference " +
             std::to_string(ref.bufferHighWater()));
    }
    if (board->bufferSize() != ref.bufferSize()) {
        note("post-drain buffer occupancy: production " +
             std::to_string(board->bufferSize()) + ", reference " +
             std::to_string(ref.bufferSize()));
    }

    if (leg_diverged) {
        report.divergedLegs.push_back(tag);
        if (report.flightDump.empty() && recorder)
            report.flightDump = recorder->snapshot();
    }
    if (recorder)
        board->detachFlightRecorder();
}

/** Shared diff body: every leg in turn. */
DiffReport
diffStreamImpl(const ies::BoardConfig &config,
               const std::string *checkpoint_path,
               const std::vector<bus::BusTransaction> &stream,
               const DiffOptions &opts)
{
    DiffReport report;
    for (const Leg leg : {Leg::Serial, Leg::Batch, Leg::Bus})
        diffLeg(leg, true, config, checkpoint_path, stream, opts, report);
    // A recorder keeps a board serial. Unrecorded, a board of two or
    // more target machines emulates them on lanes on the per-tenure
    // feeds, so those feeds run again without one.
    if (multiMachine(config)) {
        for (const Leg leg : {Leg::Serial, Leg::Bus})
            diffLeg(leg, false, config, checkpoint_path, stream, opts,
                    report);
    }
    return report;
}

} // namespace

DiffReport
diffStream(const ies::BoardConfig &config,
           const std::vector<bus::BusTransaction> &stream,
           const DiffOptions &opts)
{
    return diffStreamImpl(config, nullptr, stream, opts);
}

DiffReport
diffStreamFromCheckpoint(const ies::BoardConfig &config,
                         const std::string &checkpointPath,
                         const std::vector<bus::BusTransaction> &stream,
                         const DiffOptions &opts)
{
    return diffStreamImpl(config, &checkpointPath, stream, opts);
}

std::vector<LatticeConfig>
latticeConfigs()
{
    using cache::CacheConfig;
    using cache::ReplacementPolicy;
    std::vector<LatticeConfig> lattice;
    auto add = [&lattice](std::string name, ies::BoardConfig cfg) {
        lattice.push_back({std::move(name), std::move(cfg)});
    };

    // Line-size / capacity axis (paper Figure 11 sweeps both).
    add("mesi-2m-4w-lru",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::LRU}));
    add("mesi-4m-4w-line256",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{4 * MiB, 4, 256,
                                          ReplacementPolicy::LRU}));
    add("mesi-8m-4w-line1k",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{8 * MiB, 4, 1024,
                                          ReplacementPolicy::LRU}));

    // Associativity / replacement-policy axis.
    add("mesi-2m-direct",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 1, 128,
                                          ReplacementPolicy::LRU}));
    add("mesi-4m-8w-plru",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{4 * MiB, 8, 128,
                                          ReplacementPolicy::TreePLRU}));
    add("mesi-2m-4w-plru",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::TreePLRU}));
    add("mesi-2m-4w-fifo",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::FIFO}));
    add("mesi-2m-4w-random",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::Random}));

    // Protocol-table axis.
    add("msi-2m-4w-lru",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::LRU},
                              "MSI"));
    add("moesi-4m-4w-lru",
        ies::makeUniformBoard(1, 8,
                              CacheConfig{4 * MiB, 4, 128,
                                          ReplacementPolicy::LRU},
                              "MOESI"));

    // Topology axis: a four-node coherent machine (emulated snoops,
    // interventions, invalidations) and a Figure 4 multi-config board
    // (two target machines measuring the same traffic).
    add("mesi-4node-2cpu",
        ies::makeUniformBoard(4, 2,
                              CacheConfig{2 * MiB, 4, 128,
                                          ReplacementPolicy::LRU}));
    add("multicfg-2m-lru-4m-plru",
        ies::makeMultiConfigBoard(
            {CacheConfig{2 * MiB, 4, 128, ReplacementPolicy::LRU},
             CacheConfig{4 * MiB, 8, 128, ReplacementPolicy::TreePLRU}},
            8));

    // Set sampling (the directory tracks 1/4 of the sets).
    {
        ies::BoardConfig cfg = ies::makeUniformBoard(
            1, 8,
            CacheConfig{8 * MiB, 4, 128, ReplacementPolicy::LRU});
        cfg.nodes[0].setSamplingShift = 2;
        add("mesi-8m-sampled4", std::move(cfg));
    }

    // A tiny slow buffer so the overflow/retry path diverges loudly if
    // the pacing math ever drifts.
    {
        ies::BoardConfig cfg = ies::makeUniformBoard(
            1, 8,
            CacheConfig{2 * MiB, 4, 128, ReplacementPolicy::LRU});
        cfg.bufferEntries = 32;
        cfg.sdramThroughputPercent = 10;
        add("mesi-2m-tinybuf", std::move(cfg));
    }
    return lattice;
}

LatticeRun
runLattice(std::uint64_t firstSeed, std::size_t numSeeds,
           std::size_t txnsPerStream, const std::string &dumpDir,
           const DiffOptions &opts)
{
    LatticeRun run;
    const std::vector<LatticeConfig> lattice = latticeConfigs();
    for (std::size_t s = 0; s < numSeeds; ++s) {
        const std::uint64_t seed = firstSeed + s;
        StimulusParams params;
        params.seed = seed;
        params.count = txnsPerStream;
        params.cpus = 8;
        const auto stream = StimulusGen(params).generate();

        for (const LatticeConfig &lc : lattice) {
            ++run.comparisons;
            DiffReport first = diffStream(lc.config, stream, opts);
            if (!first.diverged)
                continue;

            const auto still_fails =
                [&lc, &opts](const std::vector<bus::BusTransaction> &st) {
                    return diffStream(lc.config, st, opts).diverged;
                };
            auto shrunk = shrinkStream(stream, still_fails);
            // Prefer the trace-file-exact form of the witness; the
            // cycle clamps can in principle mask a pacing divergence,
            // in which case the raw shrunk stream is kept (its trace
            // is then a lossy rendering, still useful for triage).
            const auto canon = canonicalizeForReplay(shrunk);
            if (still_fails(canon))
                shrunk = canon;

            LatticeDivergence div;
            div.configName = lc.name;
            div.seed = seed;
            div.report = diffStream(lc.config, shrunk, opts);
            div.shrunk = shrunk;
            if (!dumpDir.empty()) {
                std::filesystem::create_directories(dumpDir);
                const std::string base = dumpDir + "/divergence-" +
                                         lc.name + "-seed" +
                                         std::to_string(seed);
                trace::writeBusTrace(base + ".trace", shrunk);
                trace::writeLifecycleDump(base + ".spans",
                                          div.report.flightDump);
                div.tracePath = base + ".trace";
            }
            run.divergences.push_back(std::move(div));
        }
    }
    return run;
}

} // namespace memories::oracle
