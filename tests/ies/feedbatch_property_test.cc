/**
 * @file
 * The batch equivalence tier: MemoriesBoard::feedBatch must be
 * byte-identical to feeding the same stream through feedCommitted one
 * transaction at a time. "Byte-identical" is taken literally: the
 * acceptance flags, every global and node counter, every node's
 * directorySnapshot(), the buffer statistics, the board's IESCKPT
 * checkpoint bytes, and — with a flight
 * recorder attached — the retirement order and the chrome-trace JSON
 * rendered from the recorder ring, plus the anomaly count and the
 * final health state.
 *
 * Three groups:
 *
 *  - FeedBatchPropertyTest: generated streams x batch sizes. A
 *    divergence does not just fail: it is handed to the oracle's
 *    delta-debugging shrinker (oracle::shrinkStream), so the log
 *    carries a minimal reproducing stream instead of a 4000-
 *    transaction haystack.
 *  - BatchEquivTest: the hook-free batch (emulation deferred to the
 *    retirement slab) and the hooked batch (the serial path) across a
 *    geometry sweep, chunked and mixed feeds, drainAll, and which of
 *    the two a batch selects.
 *  - BatchFaultTest: fault injection and board health under the batch
 *    path — stream faults at admission, commit faults at commit,
 *    retry storms walking the degradation ladder, a tag flip still
 *    awaiting its parity scrub when the injector detaches, and
 *    resync. Each scenario asserts it actually fired.
 *
 * docs/BATCH.md describes the design these tests pin down.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/file.hh"
#include "fault/faultplan.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "profile/profiler.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{
namespace
{

/** Everything observable about a board after a run. */
struct Signature
{
    std::vector<std::uint8_t> accepted;
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::vector<std::pair<Addr, cache::LineStateRaw>>> dirs;
    std::uint64_t bufferRetired = 0;
    std::size_t bufferSize = 0;
    std::size_t bufferHighWater = 0;
    fault::HealthState health = fault::HealthState::Healthy;
    /** Everything MemoriesBoard::saveState writes, as container bytes. */
    std::vector<std::uint8_t> checkpoint;
    /** traceIds of Retire events, in ring order (recorded runs). */
    std::vector<std::uint32_t> retirementOrder;
    /** Chrome-trace JSON of the full recorder ring (recorded runs). */
    std::string chromeTrace;
    std::uint64_t anomalies = 0;

    bool operator==(const Signature &) const = default;
};

Signature
signatureOf(const MemoriesBoard &board,
            const trace::FlightRecorder *recorder,
            std::vector<std::uint8_t> accepted = {})
{
    Signature sig;
    sig.accepted = std::move(accepted);
    board.globalCounters().snapshot([&](const CounterSample &s) {
        sig.counters.emplace_back(s.name, s.value);
    });
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        board.node(i).counters().snapshot([&](const CounterSample &s) {
            sig.counters.emplace_back(s.name, s.value);
        });
        sig.dirs.push_back(board.node(i).directorySnapshot());
    }
    sig.bufferRetired = board.bufferRetired();
    sig.bufferSize = board.bufferSize();
    sig.bufferHighWater = board.bufferHighWater();
    sig.health = board.healthState();
    ckpt::CheckpointWriter writer;
    board.saveState(writer);
    sig.checkpoint = writer.bytes(board.config().fingerprint());
    if (recorder) {
        const auto events = recorder->snapshot();
        for (const auto &ev : events) {
            if (ev.kind == trace::EventKind::Retire)
                sig.retirementOrder.push_back(ev.traceId);
        }
        sig.chromeTrace = trace::chromeTraceToString(events, recorder);
        sig.anomalies = recorder->anomalies();
    }
    return sig;
}

/** Sum of every counter whose name ends in @p suffix. */
std::uint64_t
counterSum(const Signature &sig, const std::string &suffix)
{
    std::uint64_t sum = 0;
    for (const auto &[name, value] : sig.counters) {
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            sum += value;
    }
    return sum;
}

void
expectIdentical(const Signature &serial, const Signature &batched,
                const std::string &what)
{
    EXPECT_EQ(serial.accepted, batched.accepted) << what;
    ASSERT_EQ(serial.counters.size(), batched.counters.size()) << what;
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        EXPECT_EQ(serial.counters[i].second, batched.counters[i].second)
            << what << ": counter " << serial.counters[i].first;
    }
    ASSERT_EQ(serial.dirs.size(), batched.dirs.size()) << what;
    for (std::size_t n = 0; n < serial.dirs.size(); ++n)
        EXPECT_EQ(serial.dirs[n], batched.dirs[n])
            << what << ": node " << n << " directory";
    EXPECT_EQ(serial.bufferRetired, batched.bufferRetired) << what;
    EXPECT_EQ(serial.bufferSize, batched.bufferSize) << what;
    EXPECT_EQ(serial.bufferHighWater, batched.bufferHighWater) << what;
    EXPECT_EQ(serial.health, batched.health) << what;
    EXPECT_TRUE(serial.checkpoint == batched.checkpoint)
        << what << ": checkpoint bytes";
    EXPECT_EQ(serial.retirementOrder, batched.retirementOrder) << what;
    EXPECT_EQ(serial.chromeTrace, batched.chromeTrace) << what;
    EXPECT_EQ(serial.anomalies, batched.anomalies) << what;
}

/** Feed chunk for the serial path: one feedCommitted per tenure. */
constexpr std::size_t serialFeed = 0;

/**
 * Feed @p txns[from, to) serially (@p chunk == serialFeed) or through
 * feedBatch in chunks of @p chunk; append the acceptance flags to
 * @p accepted when non-null.
 */
void
feedRange(MemoriesBoard &board,
          const std::vector<bus::BusTransaction> &txns,
          std::size_t from, std::size_t to, std::size_t chunk,
          std::vector<std::uint8_t> *accepted = nullptr)
{
    if (chunk == serialFeed) {
        for (std::size_t i = from; i < to; ++i) {
            const bool ok = board.feedCommitted(txns[i]);
            if (accepted)
                accepted->push_back(ok ? 1 : 0);
        }
        return;
    }
    const auto flags = std::make_unique<bool[]>(chunk);
    for (std::size_t at = from; at < to; at += chunk) {
        const std::size_t n = std::min(chunk, to - at);
        board.feedBatch(&txns[at], n, flags.get());
        if (accepted)
            accepted->insert(accepted->end(), flags.get(),
                             flags.get() + n);
    }
}

/** What a run attaches to its board. */
struct Attach
{
    bool record = false;
    /** Fault plan for an attached injector (nullptr: none). */
    const fault::FaultPlan *plan = nullptr;
    std::uint64_t faultSeed = 7;
};

/** One fresh board fed all of @p txns; its signature. */
Signature
run(const BoardConfig &cfg, const std::vector<bus::BusTransaction> &txns,
    std::size_t chunk, const Attach &attach = {})
{
    MemoriesBoard board(cfg);
    std::unique_ptr<trace::FlightRecorder> recorder;
    if (attach.record) {
        recorder = std::make_unique<trace::FlightRecorder>(1 << 14);
        board.attachFlightRecorder(*recorder);
    }
    std::unique_ptr<fault::FaultInjector> injector;
    if (attach.plan) {
        injector = std::make_unique<fault::FaultInjector>(
            *attach.plan, attach.faultSeed);
        board.attachFaultInjector(*injector);
    }
    std::vector<std::uint8_t> accepted;
    feedRange(board, txns, 0, txns.size(), chunk, &accepted);
    Signature sig = signatureOf(board, recorder.get(), std::move(accepted));
    board.detachFaultInjector();
    return sig;
}

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    return oracle::StimulusGen(p).generate();
}

cache::CacheConfig
cacheCfg(std::uint64_t bytes, unsigned assoc,
         cache::ReplacementPolicy policy = cache::ReplacementPolicy::LRU)
{
    return cache::CacheConfig{bytes, assoc, 128, policy};
}

// --- FeedBatchPropertyTest --------------------------------------------

std::string
firstDifference(const Signature &serial, const Signature &batched)
{
    std::ostringstream os;
    for (std::size_t i = 0;
         i < std::min(serial.accepted.size(), batched.accepted.size());
         ++i) {
        if (serial.accepted[i] != batched.accepted[i]) {
            os << "acceptance of txn " << i << ": serial "
               << int{serial.accepted[i]} << " batched "
               << int{batched.accepted[i]};
            return os.str();
        }
    }
    for (std::size_t i = 0; i < serial.counters.size(); ++i) {
        if (serial.counters[i].second != batched.counters[i].second) {
            os << "counter " << serial.counters[i].first << ": serial "
               << serial.counters[i].second << " batched "
               << batched.counters[i].second;
            return os.str();
        }
    }
    for (std::size_t n = 0; n < serial.dirs.size(); ++n) {
        if (serial.dirs[n] != batched.dirs[n]) {
            os << "node " << n << " directory contents";
            return os.str();
        }
    }
    os << "buffer stats: retired " << serial.bufferRetired << "/"
       << batched.bufferRetired << " size " << serial.bufferSize << "/"
       << batched.bufferSize << " high-water "
       << serial.bufferHighWater << "/" << batched.bufferHighWater;
    return os.str();
}

/** The property; on failure, shrink to a minimal stream and report. */
void
checkEquivalence(const BoardConfig &cfg,
                 const std::vector<bus::BusTransaction> &txns,
                 std::size_t batch_size, const std::string &what)
{
    const Signature serial = run(cfg, txns, serialFeed);
    const Signature batched = run(cfg, txns, batch_size);
    if (serial == batched)
        return;

    const auto still_fails =
        [&](const std::vector<bus::BusTransaction> &candidate) {
            return run(cfg, candidate, serialFeed) !=
                   run(cfg, candidate, batch_size);
        };
    const auto shrunk = oracle::shrinkStream(txns, still_fails);
    const Signature s2 = run(cfg, shrunk, serialFeed);
    const Signature b2 = run(cfg, shrunk, batch_size);
    ADD_FAILURE() << what << ": feedBatch diverged ("
                  << firstDifference(serial, batched)
                  << "); ddmin shrank " << txns.size() << " txns to "
                  << shrunk.size() << " ("
                  << firstDifference(s2, b2) << ")";
}

std::vector<bus::BusTransaction>
propertyStream(std::uint64_t seed)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = 4000;
    p.cpus = 8;
    p.pBurst = 0.4;
    return oracle::StimulusGen(p).generate();
}

TEST(FeedBatchPropertyTest, BatchSizesAreEquivalentToSerial)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    for (std::uint64_t seed : {3u, 17u, 91u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch,
                             "seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

TEST(FeedBatchPropertyTest, PacedBufferStaysEquivalent)
{
    // A slow, tiny buffer makes retirement timing and overflow depend
    // on exactly when drainDue runs — the riskiest batching surface.
    BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    cfg.bufferEntries = 32;
    cfg.sdramThroughputPercent = 10;
    for (std::uint64_t seed : {5u, 23u}) {
        const auto txns = propertyStream(seed);
        for (std::size_t batch :
             {std::size_t{1}, std::size_t{64}, std::size_t{4096}}) {
            checkEquivalence(cfg, txns, batch,
                             "paced seed " + std::to_string(seed) +
                                 " batch " + std::to_string(batch));
        }
    }
}

// --- BatchEquivTest ----------------------------------------------------

/** The geometries the tier sweeps; each stresses a different path. */
struct EquivConfig
{
    std::string name;
    BoardConfig board;
};

std::vector<EquivConfig>
equivConfigs()
{
    std::vector<EquivConfig> cfgs;
    cfgs.push_back({"mesi-4node", makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4))});
    cfgs.push_back(
        {"mesi-2node-random",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 4,
                                   cache::ReplacementPolicy::Random))});
    cfgs.push_back(
        {"moesi-2node-fifo",
         makeUniformBoard(2, 4,
                          cacheCfg(2 * MiB, 2,
                                   cache::ReplacementPolicy::FIFO),
                          "MOESI")});
    {
        // Multi-configuration board: three geometries against the same
        // traffic, multiple target-machine groups per emulation step.
        BoardConfig multi = makeMultiConfigBoard(
            {cacheCfg(2 * MiB, 2), cacheCfg(4 * MiB, 4),
             cacheCfg(8 * MiB, 8)},
            4);
        cfgs.push_back({"multicfg", std::move(multi)});
    }
    {
        // Set sampling: prefetch and emulation use the sampled window.
        BoardConfig sampled = makeUniformBoard(2, 4, cacheCfg(8 * MiB, 4));
        for (auto &node : sampled.nodes)
            node.setSamplingShift = 2;
        cfgs.push_back({"sampled4", std::move(sampled)});
    }
    {
        // Tiny, slow buffer: pacing, overflow, and drop paths fire.
        BoardConfig tiny = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
        tiny.bufferEntries = 32;
        tiny.sdramThroughputPercent = 10;
        cfgs.push_back({"tinybuf", std::move(tiny)});
    }
    return cfgs;
}

TEST(BatchEquivTest, BatchPathMatchesSerialWithoutRecorder)
{
    // Nothing attached: feedBatch runs the hook-free instantiation.
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(11, 4000);
        expectIdentical(run(cfg.board, txns, serialFeed),
                        run(cfg.board, txns, txns.size()),
                        cfg.name + " hook-free batch");
    }
}

TEST(BatchEquivTest, BatchPathMatchesSerialWithRecorder)
{
    // A recorder attached: the batch runs the serial path.
    const Attach recorded{.record = true};
    for (const auto &cfg : equivConfigs()) {
        const auto txns = stream(23, 4000);
        expectIdentical(run(cfg.board, txns, serialFeed, recorded),
                        run(cfg.board, txns, txns.size(), recorded),
                        cfg.name + " recorded batch");
    }
}

TEST(BatchEquivTest, ChunkedBatchesMatchOneBigBatch)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(31, 3000);
    for (const bool record : {true, false}) {
        const Attach attach{.record = record};
        const auto serial = run(cfg, txns, serialFeed, attach);
        for (std::size_t batch : {std::size_t{1}, std::size_t{7},
                                  std::size_t{64}, std::size_t{4096}}) {
            expectIdentical(serial, run(cfg, txns, batch, attach),
                            "batch size " + std::to_string(batch) +
                                (record ? " recorded" : " hook-free"));
        }
    }
}

TEST(BatchEquivTest, MixedSerialAndBatchFeedsAgree)
{
    const BoardConfig cfg = makeUniformBoard(4, 2, cacheCfg(2 * MiB, 4));
    const auto txns = stream(59, 3000);
    for (const bool record : {true, false}) {
        const auto serial = run(cfg, txns, serialFeed, {.record = record});

        MemoriesBoard board(cfg);
        trace::FlightRecorder recorder(1 << 14);
        if (record)
            board.attachFlightRecorder(recorder);
        // First third serial, middle third batched, last third serial.
        const std::size_t third = txns.size() / 3;
        std::vector<std::uint8_t> accepted;
        feedRange(board, txns, 0, third, serialFeed, &accepted);
        feedRange(board, txns, third, 2 * third, third, &accepted);
        feedRange(board, txns, 2 * third, txns.size(), serialFeed,
                  &accepted);
        expectIdentical(serial,
                        signatureOf(board, record ? &recorder : nullptr,
                                    std::move(accepted)),
                        std::string("mixed serial/batch feeds") +
                            (record ? " recorded" : " hook-free"));
    }
}

TEST(BatchEquivTest, DrainAllAfterBatchMatchesSerial)
{
    const BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const auto txns = stream(67, 2000);

    MemoriesBoard serial_board(cfg);
    feedRange(serial_board, txns, 0, txns.size(), serialFeed);
    serial_board.drainAll();

    MemoriesBoard batch_board(cfg);
    batch_board.feedBatch(txns);
    batch_board.drainAll();

    expectIdentical(signatureOf(serial_board, nullptr),
                    signatureOf(batch_board, nullptr),
                    "post-drainAll state");
}

/** Batch chunk of the fault and selection scenarios. */
constexpr std::size_t faultChunk = 256;

TEST(BatchEquivTest, EmulationIsDeferredOnlyWhenNothingWatches)
{
    // The profiler's emulation stage times the deferred slab walk, so
    // its call count tells which path a batch ran: a detached board
    // defers; a recorder, an injector or health monitoring each put
    // the batch on the serial path.
    const auto txns = stream(71, 2000);
    const fault::FaultPlan empty;
    auto emulationCalls = [&](bool record, bool inject, bool health) {
        BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
        cfg.health.enabled = health;
        MemoriesBoard board(cfg);
        trace::FlightRecorder recorder(1 << 12);
        if (record)
            board.attachFlightRecorder(recorder);
        fault::FaultInjector injector(empty);
        if (inject)
            board.attachFaultInjector(injector);
        profile::Profiler prof;
        board.attachProfiler(prof);
        feedRange(board, txns, 0, txns.size(), faultChunk);
        board.detachFaultInjector();
        const profile::ProfReport report = prof.snapshot();
        EXPECT_GT(report.stage(profile::Stage::BatchAdmission).calls, 0u);
        return report.stage(profile::Stage::Emulation).calls;
    };
    EXPECT_GT(emulationCalls(false, false, false), 0u) << "detached";
    EXPECT_EQ(emulationCalls(true, false, false), 0u) << "recorder";
    EXPECT_EQ(emulationCalls(false, true, false), 0u) << "injector";
    EXPECT_EQ(emulationCalls(false, false, true), 0u) << "health on";
}

// --- BatchFaultTest ----------------------------------------------------

/** Tiny pressured board so overflow/health paths actually fire. */
BoardConfig
pressuredConfig(bool health_on)
{
    BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    cfg.bufferEntries = 24;
    cfg.sdramThroughputPercent = 12;
    if (health_on) {
        cfg.health.enabled = true;
        cfg.health.degradeOccupancyPercent = 60;
        cfg.health.degradeWindow = 16;
        cfg.health.recoverWindow = 256;
        cfg.health.quarantineStorms = 4;
    }
    return cfg;
}

fault::FaultPlan
mixedPlan()
{
    fault::FaultPlan plan;
    auto add = [&plan](fault::FaultKind kind, auto setup) {
        fault::FaultSpec spec;
        spec.kind = kind;
        setup(spec);
        plan.faults.push_back(spec);
    };
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 1;
        s.node = 0;
    });
    add(fault::FaultKind::TagFlip, [](fault::FaultSpec &s) {
        s.atTenure = 200;
        s.bit = 2;
        s.node = 1;
    });
    add(fault::FaultKind::SlotLoss, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.slots = 12;
        s.cycles = 400;
    });
    add(fault::FaultKind::RetirementStall, [](fault::FaultSpec &s) {
        s.probability = 0.005;
        s.cycles = 300;
    });
    add(fault::FaultKind::DropReply,
        [](fault::FaultSpec &s) { s.probability = 0.01; });
    add(fault::FaultKind::AddressFlip, [](fault::FaultSpec &s) {
        s.probability = 0.01;
        s.bit = 9;
    });
    return plan;
}

std::vector<bus::BusTransaction>
burstyStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.pBurst = 0.7; // keep the tiny buffer under pressure
    p.maxGap = 4;
    return oracle::StimulusGen(p).generate();
}

/**
 * Calm pacing and a tight working set: nearly every tenure commits
 * and the directories stay warm, so commit-time tag flips land on
 * live lines and later touches scrub them.
 */
std::vector<bus::BusTransaction>
calmLocalStream(std::uint64_t seed, std::size_t count)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    p.footprintLines = 1u << 9;
    p.sharedLines = 1u << 8;
    p.shareFraction = 0.5;
    return oracle::StimulusGen(p).generate();
}

TEST(BatchFaultTest, FaultedRunMatchesSerial)
{
    // Roomy default buffer so commits actually land: tag flips then
    // corrupt live lines and the parity scrubber has work to do.
    const BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    const fault::FaultPlan plan = mixedPlan();
    const Attach faulted{.record = true, .plan = &plan};
    const auto txns = calmLocalStream(101, 6000);
    const Signature serial = run(cfg, txns, serialFeed, faulted);

    // The scenario must actually exercise the hard paths, or this
    // test proves nothing.
    EXPECT_GT(counterSum(serial, ".parity.scrubs"), 0u)
        << "no tag flip was scrubbed";
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";

    expectIdentical(serial, run(cfg, txns, faultChunk, faulted),
                    "faulted run");
}

TEST(BatchFaultTest, PendingScrubAfterDetachMatchesSerial)
{
    // Tag flips land while an injector is attached; it detaches with
    // some still awaiting their parity scrub, and the tail runs through
    // the hook-free batch, which defers every retirement's emulation.
    // No new corruption can land mid-batch, so each scrub must fall
    // exactly where the serial path puts it.
    const BoardConfig cfg = makeUniformBoard(2, 4, cacheCfg(2 * MiB, 4));
    fault::FaultPlan plan;
    fault::FaultSpec flip;
    flip.kind = fault::FaultKind::TagFlip;
    flip.probability = 0.1;
    flip.bit = 1;
    plan.faults.push_back(flip);
    // A tight working set, so flips land on live lines, in bursts, so
    // flipped tenures still wait in the buffer when the injector goes.
    oracle::StimulusParams p;
    p.seed = 7;
    p.count = 6000;
    p.cpus = 8;
    p.footprintLines = 1u << 9;
    p.sharedLines = 1u << 8;
    p.shareFraction = 0.5;
    p.pBurst = 0.7;
    p.maxGap = 4;
    const auto txns = oracle::StimulusGen(p).generate();
    const std::size_t half = txns.size() / 2;

    auto scrubs = [](const MemoriesBoard &board) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < board.numNodes(); ++i)
            n += board.node(i).parityScrubs();
        return n;
    };
    struct Tail
    {
        Signature sig;
        std::uint64_t scrubs = 0;
        std::uint64_t emulations = 0;
    };
    auto run_tail = [&](std::size_t chunk) {
        MemoriesBoard board(cfg);
        fault::FaultInjector injector(plan, 7);
        board.attachFaultInjector(injector);
        std::vector<std::uint8_t> accepted;
        feedRange(board, txns, 0, half, serialFeed, &accepted);
        board.detachFaultInjector();
        const std::uint64_t before = scrubs(board);
        profile::Profiler prof;
        board.attachProfiler(prof);
        feedRange(board, txns, half, txns.size(), chunk, &accepted);
        Tail tail;
        tail.scrubs = scrubs(board) - before;
        tail.emulations =
            prof.snapshot().stage(profile::Stage::Emulation).calls;
        tail.sig = signatureOf(board, nullptr, std::move(accepted));
        return tail;
    };

    const Tail serial = run_tail(serialFeed);
    EXPECT_GT(serial.scrubs, 0u) << "no flip was pending at detach";
    const Tail batched = run_tail(faultChunk);
    EXPECT_GT(batched.emulations, 0u) << "the tail never deferred";
    EXPECT_EQ(serial.scrubs, batched.scrubs);
    expectIdentical(serial.sig, batched.sig, "pending scrub after detach");
}

TEST(BatchFaultTest, FaultedHealthRunMatchesSerial)
{
    // Pressured board with health monitoring on top of the full fault
    // plan: the ugliest interaction the batch path has to reproduce.
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const Attach faulted{.record = true, .plan = &plan};
    const auto txns = burstyStream(101, 6000);
    const Signature serial = run(cfg, txns, serialFeed, faulted);
    EXPECT_GT(serial.anomalies, 0u) << "no anomaly fired";

    expectIdentical(serial, run(cfg, txns, faultChunk, faulted),
                    "faulted health run");
}

TEST(BatchFaultTest, RetryStormLadderMatchesSerial)
{
    // An empty plan: the tiny buffer plus bursty traffic drives
    // overflow storms through the health ladder on its own.
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan empty;
    const Attach recorded{.record = true, .plan = &empty};
    const auto txns = burstyStream(211, 8000);
    const Signature serial = run(cfg, txns, serialFeed, recorded);
    EXPECT_GT(counterSum(serial, "global.health.transitions"), 0u)
        << "stream never pressured the board";
    EXPECT_GT(counterSum(serial, "global.tenures.shed"), 0u)
        << "no tenure was shed";

    expectIdentical(serial, run(cfg, txns, faultChunk, recorded),
                    "retry storm");
}

TEST(BatchFaultTest, TenureAccountingConserved)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const auto txns = burstyStream(307, 6000);
    const Signature r =
        run(cfg, txns, faultChunk, {.record = true, .plan = &plan});

    // Every committed tenure is either retired by the SDRAM side,
    // still buffered, or was lost in flight to a commit-time fault.
    const std::uint64_t committed =
        counterSum(r, "global.tenures.committed");
    const std::uint64_t lost =
        counterSum(r, "global.tenures.lost_inflight");
    EXPECT_EQ(committed, r.bufferRetired + r.bufferSize + lost);
}

TEST(BatchFaultTest, RunTwiceIsByteIdentical)
{
    const BoardConfig cfg = pressuredConfig(true);
    const fault::FaultPlan plan = mixedPlan();
    const Attach faulted{.record = true, .plan = &plan};
    const auto txns = burstyStream(401, 5000);
    expectIdentical(run(cfg, txns, faultChunk, faulted),
                    run(cfg, txns, faultChunk, faulted),
                    "second identical run");
}

TEST(BatchFaultTest, ResyncFromHealthyMatchesSerial)
{
    const BoardConfig cfg = pressuredConfig(true);
    const auto txns = burstyStream(503, 8000);
    const std::size_t half = txns.size() / 2;

    auto resynced = [&](std::size_t chunk) {
        MemoriesBoard board(cfg);
        MemoriesBoard healthy(cfg);
        // Only the victim sees the pressure; the healthy twin idles
        // through a calm prefix so its directories are warm.
        feedRange(healthy, txns, 0, half / 4, chunk);
        feedRange(board, txns, 0, half, chunk);
        const bool quarantined =
            board.healthState() == fault::HealthState::Quarantined;
        if (quarantined)
            board.resyncFrom(healthy);
        feedRange(board, txns, half, txns.size(), chunk);
        return std::make_pair(quarantined, signatureOf(board, nullptr));
    };

    const auto serial = resynced(serialFeed);
    EXPECT_TRUE(serial.first) << "the victim never reached quarantine";
    const auto batched = resynced(faultChunk);
    EXPECT_EQ(serial.first, batched.first);
    expectIdentical(serial.second, batched.second, "resync");
}

} // namespace
} // namespace memories::ies
