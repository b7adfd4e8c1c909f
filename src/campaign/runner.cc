#include "campaign/runner.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <tuple>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/counters.hh"
#include "common/logging.hh"
#include "fault/health.hh"
#include "ies/fanout.hh"
#include "oracle/stimulus.hh"
#include "trace/lifecycle.hh"

namespace memories::campaign
{

namespace
{

/**
 * Fold a segment's SDRAM retirement order into the running digest.
 * seq is deliberately excluded: recorders are fresh per segment, and
 * the fields folded here already pin the order and identity of every
 * retirement.
 */
std::uint32_t
foldRetirements(std::uint32_t crc,
                const std::vector<trace::LifecycleEvent> &events)
{
    for (const trace::LifecycleEvent &ev : events) {
        if (ev.kind != trace::EventKind::Retire)
            continue;
        ckpt::Sink s;
        s.u32(ev.traceId);
        s.u64(ev.addr);
        s.u64(ev.cycle);
        s.u8(ev.node);
        s.u8(ev.cpu);
        s.u8(static_cast<std::uint8_t>(ev.op));
        crc = ckpt::crc32(s.bytes().data(), s.size(), crc);
    }
    return crc;
}

/**
 * The per-unit campaign artifact: an IESCKPT container under the
 * unit's config fingerprint with one ckpt::secCampaignResult section
 * (docs/FORMATS.md §8). Everything in it is a pure function of
 * (config, seed, txns), so a golden uninterrupted run and any
 * killed-and-resumed run must produce byte-identical files — which is
 * exactly what the resilience tests diff. Payload: the unit's fields,
 * per-node directory digests, then the global and per-node counter
 * banks.
 */
std::vector<std::uint8_t>
renderResult(const ies::MemoriesBoard &board, std::size_t unit,
             const UnitSpec &spec, const UnitStatus &status)
{
    ckpt::CheckpointWriter writer;
    ckpt::Sink &out = writer.section(ckpt::secCampaignResult);
    out.u32(static_cast<std::uint32_t>(unit));
    out.u64(spec.seed);
    out.u64(spec.txns);
    out.u64(spec.configFingerprint);
    out.u32(status.retireCrc);
    out.u64(status.overflowDrops);
    out.u64(status.consumed);
    out.u64(board.bufferRetired());

    out.u32(static_cast<std::uint32_t>(board.numNodes()));
    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        const auto lines = board.node(n).directorySnapshot();
        ckpt::Sink dir;
        for (const auto &[addr, state] : lines) {
            dir.u64(addr);
            dir.u8(state);
        }
        out.u32(ckpt::crc32(dir.bytes().data(), dir.size()));
        out.u32(static_cast<std::uint32_t>(lines.size()));
    }

    const auto bank = [&out](const CounterBank &counters) {
        const std::vector<CounterSample> samples = counters.snapshot();
        out.u32(static_cast<std::uint32_t>(samples.size()));
        for (const CounterSample &s : samples) {
            out.str(s.name);
            out.u64(s.value);
        }
    };
    bank(board.globalCounters());
    for (std::size_t n = 0; n < board.numNodes(); ++n)
        bank(board.node(n).counters());
    return writer.bytes(spec.configFingerprint);
}

/**
 * Flight-recorder capacity for one segment: enough headroom that a
 * board emitting every lifecycle event kind per transaction cannot
 * wrap the ring (wrapping would silently drop retirements from the
 * digest; the runner treats it as an attempt failure).
 */
std::size_t
recorderCapacity(std::uint64_t segment)
{
    const std::uint64_t want = segment * 48;
    return static_cast<std::size_t>(std::max<std::uint64_t>(
        4096, std::min<std::uint64_t>(want,
                                      trace::FlightRecorder::maxCapacity)));
}

} // namespace

std::string
CampaignTotals::describe() const
{
    std::ostringstream os;
    os << done << " done, " << pending << " pending, " << running
       << " running, " << failed << " failed, " << quarantined
       << " quarantined";
    return os.str();
}

CampaignRunner::CampaignRunner(
    std::vector<oracle::LatticeConfig> configs, std::string dir,
    RunnerOptions opts)
    : configs_(std::move(configs)), dir_(std::move(dir)), opts_(opts)
{
}

const ies::BoardConfig &
CampaignRunner::configFor(const UnitSpec &unit) const
{
    for (const oracle::LatticeConfig &c : configs_) {
        if (c.name != unit.configName)
            continue;
        if (c.config.fingerprint() != unit.configFingerprint) {
            fatal("campaign config '", unit.configName,
                  "' no longer matches the plan: fingerprint 0x",
                  std::hex, c.config.fingerprint(), " vs recorded 0x",
                  unit.configFingerprint, std::dec,
                  " (the binary's configs changed since the campaign "
                  "was created)");
        }
        return c.config;
    }
    fatal("campaign plan references unknown config '", unit.configName,
          "'");
}

CampaignTotals
CampaignRunner::totals(const Manifest &manifest)
{
    CampaignTotals t;
    for (const UnitStatus &s : manifest.units()) {
        switch (s.state) {
          case UnitState::Done:        ++t.done; break;
          case UnitState::Pending:     ++t.pending; break;
          case UnitState::Running:     ++t.running; break;
          case UnitState::Failed:      ++t.failed; break;
          case UnitState::Quarantined: ++t.quarantined; break;
        }
    }
    return t;
}

std::string
CampaignRunner::status(const std::string &dir)
{
    return Manifest::open(dir).describe();
}

CampaignTotals
CampaignRunner::start(const CampaignPlan &plan)
{
    Manifest manifest = Manifest::create(dir_, plan);
    return run(manifest);
}

CampaignTotals
CampaignRunner::resume()
{
    Manifest manifest = Manifest::open(dir_);
    return run(manifest);
}

CampaignTotals
CampaignRunner::run(Manifest &manifest)
{
    const CampaignPlan &plan = manifest.plan();
    nextRound_.assign(plan.units.size(), 0);
    round_ = 0;

    // Normalize interruption and re-verify completed artifacts before
    // scheduling anything.
    bool dirty = false;
    for (std::size_t i = 0; i < plan.units.size(); ++i) {
        UnitStatus s = manifest.unit(i);
        if (s.state == UnitState::Running) {
            // The process died mid-attempt. The attempt did not fail
            // on its own, so refund the charge and retry immediately —
            // any number of kills never quarantines a healthy unit.
            if (s.attempts > 0)
                --s.attempts;
            s.state = UnitState::Pending;
            s.note = "interrupted at position " +
                     std::to_string(s.position);
            manifest.stage(i, s);
            dirty = true;
        } else if (s.state == UnitState::Done) {
            const std::string path = manifest.resultPath(i);
            if (!ckpt::fileExists(path)) {
                fatal("campaign unit ", i,
                      " is recorded done but its result file '", path,
                      "' is missing");
            }
            const std::vector<std::uint8_t> bytes =
                ckpt::readFileBytes(path, "campaign unit result");
            if (ckpt::crc32(bytes.data(), bytes.size()) !=
                s.resultCrc) {
                fatal("campaign unit ", i, " result file '", path,
                      "' does not match the hash recorded in the "
                      "manifest (corrupt result; refusing to reuse "
                      "it)");
            }
        }
    }
    if (dirty)
        manifest.persist();

    while (true) {
        std::vector<std::size_t> eligible;
        bool anyRunnable = false;
        std::uint64_t soonest = ~std::uint64_t{0};
        for (std::size_t i = 0; i < plan.units.size(); ++i) {
            const UnitState st = manifest.unit(i).state;
            if (st != UnitState::Pending && st != UnitState::Failed)
                continue;
            anyRunnable = true;
            if (nextRound_[i] <= round_)
                eligible.push_back(i);
            else
                soonest = std::min(soonest, nextRound_[i]);
        }
        if (!anyRunnable)
            break;
        if (eligible.empty()) {
            // Everything runnable is backing off; jump to the first
            // round with work instead of spinning empty rounds.
            round_ = soonest;
            continue;
        }

        // One wave per round: the eligible units sharing the first
        // (seed, txns, position) key. Units of one wave consume one
        // stream and checkpoint at the same boundaries.
        std::map<std::tuple<std::uint64_t, std::uint64_t,
                            std::uint64_t>,
                 std::vector<std::size_t>>
            groups;
        for (const std::size_t i : eligible) {
            groups[{plan.units[i].seed, plan.units[i].txns,
                    manifest.unit(i).position}]
                .push_back(i);
        }
        runWave(manifest, groups.begin()->second);
        ++round_;
    }
    return totals(manifest);
}

void
CampaignRunner::runWave(Manifest &manifest,
                        const std::vector<std::size_t> &wave)
{
    const CampaignPlan &plan = manifest.plan();
    const UnitSpec &lead = plan.units[wave.front()];
    const std::uint64_t startPos = manifest.unit(wave.front()).position;

    if (opts_.log) {
        *opts_.log << "iescamp: wave of " << wave.size()
                   << " unit(s), seed " << lead.seed << ", position "
                   << startPos << "/" << lead.txns << "\n";
    }

    oracle::StimulusParams sp;
    sp.seed = lead.seed;
    sp.count = static_cast<std::size_t>(lead.txns);
    sp.cpus = plan.streamCpus;
    sp.pBurst = plan.streamBurstPermille / 1000.0;
    const std::vector<bus::BusTransaction> stream =
        oracle::StimulusGen(sp).generate();

    ies::ExperimentFleet fleet;
    for (const std::size_t idx : wave) {
        fleet.addExperiment(configFor(plan.units[idx]),
                            plan.units[idx].seed,
                            "unit" + std::to_string(idx));
    }

    // Restores are the read path: a checkpoint that no longer matches
    // the hash in the manifest is disk corruption and fails the whole
    // campaign closed — retrying cannot make the bytes honest.
    for (std::size_t j = 0; j < wave.size(); ++j) {
        if (startPos == 0)
            continue;
        const std::size_t idx = wave[j];
        const std::string path = manifest.checkpointPath(idx, startPos);
        std::vector<std::uint8_t> bytes =
            ckpt::readFileBytes(path, "campaign checkpoint");
        if (ckpt::crc32(bytes.data(), bytes.size()) !=
            manifest.unit(idx).ckptCrc) {
            fatal("campaign checkpoint '", path,
                  "' does not match the hash recorded in the manifest "
                  "(corrupt checkpoint; refusing to resume from it)");
        }
        fleet.board(j).loadState(ckpt::CheckpointImage::fromBytes(
            std::move(bytes), "checkpoint '" + path + "'"));
    }

    // Write-ahead: every attempt is durably Running before its first
    // reference is fed, so a crash can never mistake an interrupted
    // attempt for a pending one.
    for (const std::size_t idx : wave) {
        UnitStatus s = manifest.unit(idx);
        s.state = UnitState::Running;
        ++s.attempts;
        s.note.clear();
        manifest.stage(idx, s);
    }
    manifest.persist();

    std::vector<bool> live(wave.size(), true);
    const auto failUnit = [&](std::size_t j, const std::string &why) {
        const std::size_t idx = wave[j];
        UnitStatus s = manifest.unit(idx);
        s.state = s.attempts >= plan.maxAttempts
                      ? UnitState::Quarantined
                      : UnitState::Failed;
        s.note = why;
        manifest.stage(idx, s);
        nextRound_[idx] =
            round_ + fault::backoffUnits(s.attempts, plan.backoffLimit);
        live[j] = false;
        fleet.board(j).detachFlightRecorder();
        if (opts_.log) {
            *opts_.log << "iescamp: unit " << idx << " attempt "
                       << s.attempts << " "
                       << unitStateName(s.state) << ": " << why
                       << "\n";
        }
    };
    const auto anyLive = [&live] {
        return std::find(live.begin(), live.end(), true) != live.end();
    };

    const std::size_t workers =
        opts_.fleetWorkers ? opts_.fleetWorkers : plan.fleetWorkers;
    const std::size_t recCap = recorderCapacity(plan.checkpointEvery);
    const auto waveStart = std::chrono::steady_clock::now();

    std::vector<std::unique_ptr<trace::FlightRecorder>> recorders(
        wave.size());
    std::uint64_t pos = startPos;
    while (pos < lead.txns && anyLive()) {
        const std::uint64_t step = std::min<std::uint64_t>(
            plan.checkpointEvery, lead.txns - pos);
        for (std::size_t j = 0; j < wave.size(); ++j) {
            if (!live[j])
                continue;
            recorders[j] =
                std::make_unique<trace::FlightRecorder>(recCap);
            fleet.attachFlightRecorder(j, *recorders[j]);
        }
        fleet.start(workers);
        for (std::uint64_t i = pos; i < pos + step; ++i)
            fleet.publish(stream[static_cast<std::size_t>(i)]);
        fleet.finish();
        const std::uint64_t prevPos = pos;
        pos += step;

        // Segment commit: checkpoint every live board, stage its new
        // position, then make all of it durable in one manifest
        // rewrite. A unit whose durable write is refused fails only
        // that unit's attempt; its durable state stays at prevPos.
        std::vector<std::size_t> committed;
        for (std::size_t j = 0; j < wave.size(); ++j) {
            if (!live[j])
                continue;
            const std::size_t idx = wave[j];
            ies::MemoriesBoard &board = fleet.board(j);
            board.detachFlightRecorder();
            if (recorders[j]->overwritten() > 0) {
                failUnit(j,
                         "flight recorder overflowed (lower the "
                         "checkpoint cadence)");
                continue;
            }
            UnitStatus s = manifest.unit(idx);
            s.retireCrc =
                foldRetirements(s.retireCrc, recorders[j]->snapshot());
            s.overflowDrops += fleet.overflowDrops(j);
            s.consumed += fleet.eventsConsumed(j);
            s.position = pos;
            if (board.healthState() ==
                fault::HealthState::Quarantined) {
                failUnit(j, "board quarantined at position " +
                                std::to_string(pos));
                continue;
            }
            ckpt::CheckpointWriter writer;
            board.saveState(writer);
            const std::vector<std::uint8_t> blob =
                writer.bytes(board.config().fingerprint());
            try {
                ckpt::atomicWriteFile(manifest.checkpointPath(idx, pos),
                                      blob.data(), blob.size());
            } catch (const FatalError &e) {
                failUnit(j, e.what());
                continue;
            }
            s.ckptCrc = ckpt::crc32(blob.data(), blob.size());
            manifest.stage(idx, s);
            committed.push_back(idx);
        }
        // Manifest persistence failures are campaign-fatal (and the
        // campaign is resumable from the previous manifest) — with no
        // journal there is nothing safe to continue from.
        manifest.persist();
        // Only after the new positions are durable may the previous
        // position's checkpoints go away.
        if (prevPos > 0) {
            for (const std::size_t idx : committed) {
                ckpt::removeFileIfExists(
                    manifest.checkpointPath(idx, prevPos));
            }
        }

        if (opts_.attemptDeadlineMs && anyLive()) {
            const auto elapsed =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    std::chrono::steady_clock::now() - waveStart)
                    .count();
            if (static_cast<std::uint64_t>(elapsed) >
                opts_.attemptDeadlineMs) {
                for (std::size_t j = 0; j < wave.size(); ++j) {
                    if (!live[j])
                        continue;
                    failUnit(j, "watchdog: wave exceeded " +
                                    std::to_string(
                                        opts_.attemptDeadlineMs) +
                                    "ms at position " +
                                    std::to_string(pos));
                }
                manifest.persist();
            }
        }
    }

    // Completion: render and durably publish each survivor's result
    // artifact, then record Done. Result-before-Done is the same
    // write-ahead ordering as checkpoint-before-position.
    std::vector<std::size_t> finished;
    for (std::size_t j = 0; j < wave.size(); ++j) {
        if (!live[j])
            continue;
        const std::size_t idx = wave[j];
        UnitStatus s = manifest.unit(idx);
        const std::vector<std::uint8_t> blob = renderResult(
            fleet.board(j), idx, plan.units[idx], s);
        try {
            ckpt::atomicWriteFile(manifest.resultPath(idx), blob.data(),
                                  blob.size());
        } catch (const FatalError &e) {
            failUnit(j, e.what());
            continue;
        }
        s.state = UnitState::Done;
        s.resultCrc = ckpt::crc32(blob.data(), blob.size());
        s.note.clear();
        manifest.stage(idx, s);
        finished.push_back(idx);
        if (opts_.log) {
            *opts_.log << "iescamp: unit " << idx << " done ("
                       << plan.units[idx].configName << " seed "
                       << plan.units[idx].seed << ")\n";
        }
    }
    manifest.persist();
    for (const std::size_t idx : finished)
        ckpt::removeFileIfExists(manifest.checkpointPath(idx, pos));
}

} // namespace memories::campaign
