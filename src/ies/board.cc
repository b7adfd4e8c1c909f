#include "ies/board.hh"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <exception>
#include <sstream>
#include <system_error>
#include <thread>

#include "checkpoint/file.hh"
#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "fault/injector.hh"
#include "ies/eventring.hh"
#include "profile/profiler.hh"

namespace memories::ies
{

namespace
{

/** Load section @p id of @p image into @p component, which must
 *  consume the payload exactly. */
template <typename Component>
void
loadSection(const ckpt::CheckpointImage &image, std::uint32_t id,
            Component &component)
{
    ckpt::Source source = image.open(id);
    component.loadState(source);
    source.expectEnd();
}

/** CPUs the calling thread may run on (1 when the mask is unreadable). */
std::size_t
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
}

/** Ring slots between the bus thread and the lanes. */
constexpr std::size_t laneRingSlots = 1024;

/** Retirements the bus thread hands over per ring push. A push may
 *  wake every sleeping lane, so pushes are few and large. */
constexpr std::size_t lanePush = 512;

/** The most a lane pops at once. */
constexpr std::size_t lanePop = 128;

} // namespace

/**
 * The lanes of one lane run, allocated on the bus thread before any
 * lane starts: the ring, the bus thread's outbox of retirements not yet
 * pushed, and per lane its pop buffer, its cursor list for
 * EventRing::waitForEvents and the exception it stopped on.
 */
struct MemoriesBoard::Lanes
{
    explicit Lanes(std::size_t count)
        : ring(laneRingSlots, count),
          batches(count, std::vector<bus::BusTransaction>(lanePop)),
          cursors(count), errors(count)
    {
        outbox.reserve(lanePush);
        for (std::size_t lane = 0; lane < count; ++lane)
            cursors[lane].push_back(lane);
        threads.reserve(count);
    }

    EventRing ring;
    std::vector<bus::BusTransaction> outbox;
    std::vector<std::vector<bus::BusTransaction>> batches;
    std::vector<std::vector<std::size_t>> cursors;
    std::vector<std::exception_ptr> errors;
    std::vector<std::thread> threads;
};

MemoriesBoard::MemoriesBoard(const BoardConfig &config, std::uint64_t seed)
    : config_(config),
      buffer_(config.bufferEntries, config.sdramThroughputPercent),
      health_(config.health)
{
    config_.validate();
    for (std::size_t i = 0; i < config_.nodes.size(); ++i) {
        nodes_.push_back(std::make_unique<NodeController>(
            static_cast<NodeId>(i), config_.nodes[i], seed));
    }
    if (config_.traceCapture)
        capture_.emplace(config_.traceCaptureRecords);

    hTenures_ = global_.add("global.tenures.memory");
    hCommitted_ = global_.add("global.tenures.committed");
    hFiltered_ = global_.add("global.tenures.filtered");
    hDroppedRetry_ = global_.add("global.tenures.dropped_retry");
    hReads_ = global_.add("global.reads");
    hWrites_ = global_.add("global.writes");
    hWritebacks_ = global_.add("global.writebacks");
    hRetriesPosted_ = global_.add("global.retries_posted");
    hLostInflight_ = global_.add("global.tenures.lost_inflight");
    hFaultDropped_ = global_.add("global.tenures.fault_dropped");
    hSampledOut_ = global_.add("global.tenures.sampled_out");
    hShed_ = global_.add("global.tenures.shed");
    hQuarantined_ = global_.add("global.tenures.quarantined");
    hHealthTransitions_ = global_.add("global.health.transitions");

    // All nodes share one line size (boardconfig validates geometries
    // against the same bounds); degraded sampling keys on it.
    healthLineShift_ = static_cast<unsigned>(
        log2i(config_.nodes.front().cache.lineSize));
    health_.onTransition([this](fault::HealthState from,
                                fault::HealthState to) {
        global_.bump(hHealthTransitions_);
        if (!recorder_)
            return;
        trace::LifecycleEvent ev;
        ev.kind = trace::EventKind::HealthTransition;
        ev.cycle = healthCycle_;
        ev.traceId = healthTraceId_;
        ev.board = boardId_;
        ev.arg0 = static_cast<std::uint8_t>(from);
        ev.arg1 = static_cast<std::uint8_t>(to);
        recorder_->record(ev);
        if (to == fault::HealthState::Degraded) {
            recorder_->notifyAnomaly(trace::AnomalyKind::HealthDegraded,
                                     healthCycle_, healthTraceId_);
        } else if (to == fault::HealthState::Quarantined) {
            recorder_->notifyAnomaly(
                trace::AnomalyKind::BoardQuarantined, healthCycle_,
                healthTraceId_);
        }
    });

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const unsigned machine = nodes_[i]->targetMachine();
        MachineGroup *group = nullptr;
        for (auto &g : machines_) {
            if (g.machine == machine) {
                group = &g;
                break;
            }
        }
        if (!group) {
            machines_.push_back(MachineGroup{machine, {}});
            group = &machines_.back();
        }
        group->nodes.push_back(static_cast<std::uint8_t>(i));
    }

    // Machines share nothing but the retirement order, so each can run
    // on a lane of its own; the bus thread keeps one CPU.
    if (machines_.size() >= 2)
        laneCount_ = static_cast<std::uint8_t>(
            std::min(machines_.size(), usableCpus() - 1));
}

MemoriesBoard::~MemoriesBoard()
{
    // A destructor cannot rethrow a lane's exception; the state it
    // concerns dies with the board.
    if (lanes_)
        joinLanes(false);
}

std::unique_ptr<MemoriesBoard>
MemoriesBoard::make(const BoardConfig &config, std::uint64_t seed)
{
    return std::make_unique<MemoriesBoard>(config, seed);
}

void
MemoriesBoard::plugInto(bus::Bus6xx &bus)
{
    bus.attach(this);
    bus.attachObserver(this);
}

void
MemoriesBoard::unplug(bus::Bus6xx &bus)
{
    stopLanes();
    bus.detach(this);
    bus.detachObserver(this);
}

std::uint64_t
MemoriesBoard::retriesPosted() const
{
    return global_.value(hRetriesPosted_);
}

void
MemoriesBoard::attachFlightRecorder(trace::FlightRecorder &recorder,
                                    std::uint8_t boardId)
{
    stopLanes();
    recorder_ = &recorder;
    boardId_ = boardId;
    for (auto &node : nodes_)
        node->setFlightRecorder(&recorder, boardId);
}

void
MemoriesBoard::detachFlightRecorder()
{
    stopLanes();
    recorder_ = nullptr;
    for (auto &node : nodes_)
        node->setFlightRecorder(nullptr);
    if (injector_)
        injector_->setFlightRecorder(nullptr);
}

void
MemoriesBoard::attachFaultInjector(fault::FaultInjector &injector)
{
    stopLanes();
    injector_ = &injector;
    injector_->setFlightRecorder(recorder_, boardId_);
}

void
MemoriesBoard::detachFaultInjector()
{
    stopLanes();
    if (injector_)
        injector_->setFlightRecorder(nullptr);
    injector_ = nullptr;
}

void
MemoriesBoard::attachProfiler(profile::Profiler &profiler)
{
    prof_ = &profiler;
}

void
MemoriesBoard::detachProfiler()
{
    prof_ = nullptr;
}

void
MemoriesBoard::resyncFrom(const MemoriesBoard &healthy)
{
    if (&healthy == this)
        fatal("a board cannot resync from itself");
    stopLanes();
    healthy.stopLanes();
    if (healthy.nodes_.size() != nodes_.size()) {
        fatal("resync source has ", healthy.nodes_.size(),
              " nodes but this board has ", nodes_.size());
    }
    // Round-trip each healthy node through the StateCodec into a
    // freshly built controller, staging every one before touching
    // anything, so a mismatch partway through leaves this board intact.
    std::vector<NodeController> staged;
    staged.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        if (healthy.nodes_[i]->geometrySignature() !=
            nodes_[i]->geometrySignature()) {
            fatal("resync geometry mismatch at node ", i);
        }
        ckpt::Sink sink;
        healthy.nodes_[i]->saveState(sink);
        ckpt::Source source(sink.bytes().data(), sink.size(),
                            "resync node " + std::to_string(i));
        staged.emplace_back(static_cast<NodeId>(i), config_.nodes[i]);
        staged.back().loadState(source);
        source.expectEnd();
    }
    // Buffered tenures predate the mirrored directories; retiring them
    // now would corrupt the copy, so they are lost in flight (keeping
    // committed == retired + lost_inflight).
    while (buffer_.drainUnpaced())
        global_.bump(hLostInflight_);
    for (std::size_t i = 0; i < nodes_.size(); ++i)
        nodes_[i]->takeDirectory(std::move(staged[i]));
    health_.resync();
}

template <bool Hooks>
void
MemoriesBoard::drainDue(Cycle now)
{
    if constexpr (Hooks) {
        if (lanesWanted()) {
            // Nothing on this thread reads a node before the next stop
            // point, so the machines emulate on the lanes.
            while (auto txn = buffer_.drain(now))
                toLanes(*txn);
            return;
        }
        while (auto txn = buffer_.drain(now)) {
            if (recorder_)
                recorder_->record(
                    makeEvent(trace::EventKind::Retire, *txn, now));
            emulateStep(*txn);
        }
    } else {
        // Nothing observes a retirement before the batch returns, so
        // its emulation waits for emulateSlab().
        buffer_.drainInto(now, retireSlab_);
    }
}

template <bool Hooks>
MemoriesBoard::Verdict
MemoriesBoard::admit(bus::BusTransaction &t)
{
    // Address-filter FPGA: non-emulation operations (I/O register
    // accesses, interrupts, syncs) are dropped before they consume any
    // buffer space.
    if (bus::isFilteredOp(t.op)) {
        global_.bump(hFiltered_);
        return Verdict::Filtered;
    }

    bool dropped = false;
    if constexpr (Hooks) {
        if (injector_)
            dropped = injector_->onTenure(t).drop;
        healthCycle_ = t.cycle;
        healthTraceId_ = t.traceId;
    }

    // Global-events FPGA. Counted without branches: the op mix is
    // data, so a branch per op class mispredicts on real streams.
    global_.bump(hTenures_);
    global_.bump(hReads_, bus::isReadOp(t.op));
    global_.bump(hWrites_, bus::isWriteIntentOp(t.op));
    global_.bump(hWritebacks_, t.op == bus::BusOp::WriteBack);

    if (dropped) {
        // Injected DropReply: the board never saw this tenure.
        global_.bump(hFaultDropped_);
        return Verdict::Ignored;
    }

    // Let the SDRAM side catch up to this bus cycle before judging
    // buffer fullness.
    drainDue<Hooks>(t.cycle);

    if constexpr (Hooks) {
        if (health_.state() == fault::HealthState::Quarantined) {
            // The board is off the bus until an operator resyncs it;
            // keep draining what it already holds, accept nothing new.
            global_.bump(hQuarantined_);
            return Verdict::Ignored;
        }
        if (health_.sampledOut(t.addr, healthLineShift_)) {
            // Degraded: shed load by sampling lines instead of
            // dropping arbitrary tenures.
            global_.bump(hSampledOut_);
            return Verdict::Ignored;
        }
    }

    if (buffer_.size() < buffer_.effectiveCapacity(t.cycle))
        return Verdict::Accepted;
    if constexpr (Hooks) {
        if (health_.onOverflow() == fault::OverflowAction::Shed) {
            // Retry storm: back off the bus and drop the tenure
            // instead of wedging the host. No retry is posted.
            global_.bump(hShed_);
            if (recorder_)
                recordOverflow(t, t.cycle, overflowDropped);
            return Verdict::Ignored;
        }
    }
    global_.bump(hRetriesPosted_);
    return Verdict::Full;
}

template <bool Hooks>
void
MemoriesBoard::commit(const bus::BusTransaction &txn, Cycle event_cycle)
{
    global_.bump(hCommitted_);
    if (Hooks && recorder_)
        recorder_->record(makeEvent(trace::EventKind::BoardCommit, txn,
                                    event_cycle));
    if (capture_)
        capture_->record(txn);
    if constexpr (Hooks) {
        if (injector_)
            applyCommitFaults(txn);
        health_.onAdmit(buffer_.size(), buffer_.capacity());
    }
    if (!buffer_.push(txn)) {
        // The capacity check passed at admission, but a commit-time
        // fault (slot loss) can shrink the buffer in between. The
        // hardware would have wedged here; the software board counts
        // the loss and carries on.
        global_.bump(hLostInflight_);
        if (Hooks && recorder_)
            recordOverflow(txn, event_cycle, overflowLost);
    }
}

template <bool Hooks>
bool
MemoriesBoard::replay(const bus::BusTransaction &txn)
{
    bus::BusTransaction t = txn;
    switch (admit<Hooks>(t)) {
      case Verdict::Accepted:
        commit<Hooks>(t, t.cycle + 1);
        return true;
      case Verdict::Full:
        // Replay cannot post a retry: the tenure is dropped.
        if (Hooks && recorder_)
            recordOverflow(t, t.cycle, overflowDropped);
        return false;
      case Verdict::Filtered:
      case Verdict::Ignored:
        break;
    }
    return true;
}

void
MemoriesBoard::recordOverflow(const bus::BusTransaction &txn,
                              Cycle cycle, std::uint8_t code)
{
    auto ev = makeEvent(trace::EventKind::BufferOverflow, txn, cycle);
    ev.arg0 = code;
    recorder_->record(ev);
    recorder_->notifyAnomaly(code == overflowDropped
                                 ? trace::AnomalyKind::FleetDrop
                                 : trace::AnomalyKind::TxnBufferOverflow,
                             cycle, txn.traceId);
}

bus::SnoopResponse
MemoriesBoard::snoop(const bus::BusTransaction &txn)
{
    bus::BusTransaction t = txn;
    const Verdict verdict = admit<true>(t);
    if (verdict == Verdict::Filtered)
        return bus::SnoopResponse::None;
    pending_.reset();
    pendingRetried_ = false;
    if (verdict == Verdict::Accepted) {
        pending_ = t;
    } else if (verdict == Verdict::Full) {
        // The one non-passive behaviour the board has.
        pendingRetried_ = true;
        if (recorder_)
            recordOverflow(t, t.cycle, overflowRetried);
        return bus::SnoopResponse::Retry;
    }
    return bus::SnoopResponse::None;
}

void
MemoriesBoard::observeResult(const bus::BusTransaction &txn,
                             bus::SnoopResponse combined)
{
    if (bus::isFilteredOp(txn.op))
        return;
    if (pendingRetried_) {
        // We retried it ourselves; the replay will come back.
        pendingRetried_ = false;
        return;
    }
    if (!pending_)
        return;

    if (combined == bus::SnoopResponse::Retry) {
        // Some other agent retried the tenure: it did not complete, so
        // the filter drops it (the replay will be processed instead).
        global_.bump(hDroppedRetry_);
        if (recorder_)
            recorder_->record(makeEvent(trace::EventKind::BoardDropRetry,
                                        txn, txn.cycle + 1));
        pending_.reset();
        return;
    }

    commit<true>(*pending_, txn.cycle + 1);
    pending_.reset();
}

void
MemoriesBoard::applyCommitFaults(const bus::BusTransaction &txn)
{
    const fault::FaultInjector::CommitFaults faults =
        injector_->onCommit(txn);
    if (faults.stall)
        buffer_.injectStall(faults.stallUntil);
    if (faults.slotLoss)
        buffer_.injectSlotLoss(faults.slots, faults.slotsUntil);
    if (faults.tagFlip && !nodes_.empty()) {
        nodes_[faults.tagNode % nodes_.size()]->corruptLine(
            txn.addr, faults.tagBit);
    }
}

bool
MemoriesBoard::feedCommitted(const bus::BusTransaction &txn)
{
    return replay<true>(txn);
}

void
MemoriesBoard::drainAll()
{
    stopLanes();
    while (auto txn = buffer_.drainUnpaced()) {
        if (recorder_)
            recorder_->record(
                makeEvent(trace::EventKind::Retire, *txn, txn->cycle));
        emulateStep(*txn);
    }
}

void
MemoriesBoard::emulateMachine(const MachineGroup &m,
                              const bus::BusTransaction &txn)
{
    // Lock-step emulation step: within the target machine (groups
    // precomputed at construction) the non-owning nodes snoop first
    // (their combined emulated response is the "resulting state from
    // other cache nodes" input of the requester's protocol table),
    // then the owning node applies its requester transition.
    NodeController *owner = nullptr;
    auto emu_resp = bus::SnoopResponse::None;
    for (std::uint8_t n : m.nodes) {
        NodeController *node = nodes_[n].get();
        if (node->ownsCpu(txn.cpu))
            owner = node;
        else
            emu_resp = bus::combineSnoop(emu_resp, node->snoopRemote(txn));
    }
    if (owner)
        owner->processLocal(txn, emu_resp);
}

void
MemoriesBoard::emulateStep(const bus::BusTransaction &txn)
{
    for (const MachineGroup &m : machines_)
        emulateMachine(m, txn);
}

void
MemoriesBoard::toLanes(const bus::BusTransaction &txn)
{
    if (!lanes_ && !startLanes()) {
        emulateStep(txn);
        return;
    }
    std::vector<bus::BusTransaction> &outbox = lanes_->outbox;
    outbox.push_back(txn);
    if (outbox.size() == lanePush) {
        lanes_->ring.push(outbox.data(), outbox.size());
        outbox.clear();
    }
}

bool
MemoriesBoard::startLanes()
{
    auto lanes = std::make_unique<Lanes>(laneCount_);
    try {
        for (std::size_t lane = 0; lane < laneCount_; ++lane) {
            lanes->threads.emplace_back(
                [this, &run = *lanes, lane] { laneMain(run, lane); });
        }
    } catch (const std::system_error &) {
        // No thread to be had: stop the lanes that did start and
        // emulate serially from now on.
        lanes->ring.close();
        for (std::thread &t : lanes->threads)
            t.join();
        laneCount_ = 0;
        return false;
    }
    lanes_ = std::move(lanes);
    return true;
}

void
MemoriesBoard::laneMain(Lanes &lanes, std::size_t lane)
{
    std::vector<bus::BusTransaction> &batch = lanes.batches[lane];
    const std::size_t stride = lanes.batches.size();
    bool failed = false;
    while (true) {
        bool drained = false;
        const std::size_t n =
            lanes.ring.pop(lane, batch.data(), batch.size(), &drained);
        if (!failed) {
            try {
                for (std::size_t g = lane; g < machines_.size();
                     g += stride) {
                    for (std::size_t i = 0; i < n; ++i)
                        emulateMachine(machines_[g], batch[i]);
                }
            } catch (...) {
                // Stop emulating but keep the cursor moving, so the
                // bus thread never waits on this lane; the next stop
                // point rethrows on the caller's thread.
                lanes.errors[lane] = std::current_exception();
                failed = true;
            }
        }
        if (drained)
            return;
        if (n == 0)
            lanes.ring.waitForEvents(lanes.cursors[lane]);
    }
}

void
MemoriesBoard::joinLanes(bool rethrow) const
{
    const std::unique_ptr<Lanes> lanes = std::move(lanes_);
    if (!lanes->outbox.empty())
        lanes->ring.push(lanes->outbox.data(), lanes->outbox.size());
    lanes->ring.close();
    for (std::thread &t : lanes->threads)
        t.join();
    if (!rethrow)
        return;
    for (const std::exception_ptr &error : lanes->errors) {
        if (error)
            std::rethrow_exception(error);
    }
}

void
MemoriesBoard::emulateSlab()
{
    const std::size_t end = retireSlab_.size();
    if (end == 0)
        return;
    profile::ScopedStage scope(prof_, profile::Stage::Emulation);
    // Pull the directory sets a few retirements ahead so the tag loads
    // overlap the current step's protocol work.
    constexpr std::size_t prefetch_dist = 8;
    for (std::size_t i = 0; i < end; ++i) {
        if (i + prefetch_dist < end) {
            const Addr ahead = retireSlab_[i + prefetch_dist].addr;
            for (const auto &node : nodes_)
                node->prefetchDirectory(ahead);
        }
        emulateStep(retireSlab_[i]);
    }
    retireSlab_.clear();
}

template <bool Hooks>
std::size_t
MemoriesBoard::admitBatch(const bus::BusTransaction *txns,
                          std::size_t count, bool *accepted)
{
    profile::ScopedStage scope(prof_, profile::Stage::BatchAdmission);
    std::size_t ok_count = 0;
    for (std::size_t i = 0; i < count; ++i) {
        const bool ok = replay<Hooks>(txns[i]);
        if (accepted)
            accepted[i] = ok;
        ok_count += ok;
    }
    return ok_count;
}

std::size_t
MemoriesBoard::feedBatch(const bus::BusTransaction *txns,
                         std::size_t count, bool *accepted)
{
    stopLanes();
    profile::ScopedStage scope(prof_, profile::Stage::FeedBatch);
    std::size_t ok_count = 0;
    if (injector_ == nullptr && recorder_ == nullptr &&
        !health_.enabled()) {
        // Nothing observes per-tenure effects: admit the whole batch,
        // then emulate its retirements in one prefetching pass.
        ok_count = admitBatch<false>(txns, count, accepted);
        emulateSlab();
        // The serial path notes every unfiltered tenure for health
        // events; note the batch's last one, so the checkpoint bytes
        // do not depend on which path fed the board.
        for (std::size_t i = count; i-- > 0;) {
            if (!bus::isFilteredOp(txns[i].op)) {
                healthCycle_ = txns[i].cycle;
                healthTraceId_ = txns[i].traceId;
                break;
            }
        }
    } else {
        // A hook watches every tenure: the serial path, emulating each
        // retirement as it drains.
        ok_count = admitBatch<true>(txns, count, accepted);
    }
    return ok_count;
}

std::size_t
MemoriesBoard::feedBatch(const std::vector<bus::BusTransaction> &txns,
                         bool *accepted)
{
    return txns.empty() ? 0
                        : feedBatch(txns.data(), txns.size(), accepted);
}

void
MemoriesBoard::attachTelemetry(telemetry::Sampler &sampler,
                               const std::string &prefix)
{
    // The sampler reads node banks when a window closes, on this
    // thread: the board stays serial from now on (lanesWanted).
    stopLanes();
    sampler.addBank(prefix, global_);
    for (const auto &node : nodes_)
        sampler.addBank(prefix, node->counters());
    sampler.addGauge(prefix + ".buffer.occupancy", [this] {
        return static_cast<double>(buffer_.size());
    });

    if (!occupancyHist_) {
        // Occupancy in 16-entry steps covers the 512-entry board buffer
        // exactly; latency buckets span 0..2047 cycles before the
        // overflow bin (a full buffer draining at 42% sits near 1200).
        occupancyHist_ = std::make_unique<telemetry::Histogram>(
            prefix + ".buffer.occupancy", 16, 32);
        commitLatencyHist_ = std::make_unique<telemetry::Histogram>(
            prefix + ".commit_latency_cycles", 64, 32);
        buffer_.setTelemetry(occupancyHist_.get(),
                             commitLatencyHist_.get());
    }
    sampler.addHistogram(*occupancyHist_);
    sampler.addHistogram(*commitLatencyHist_);
}

void
MemoriesBoard::clearCounters()
{
    stopLanes();
    global_.clearAll();
    for (auto &node : nodes_)
        node->clearCounters();
}

void
MemoriesBoard::reset()
{
    clearCounters(); // a stop point: no lane runs past here
    for (auto &node : nodes_)
        node->resetDirectory();
    if (capture_)
        capture_->reset();
}

std::string
MemoriesBoard::dumpCounters() const
{
    stopLanes();
    std::string text = global_.dump();
    for (const auto &node : nodes_)
        text += node->counters().dump();
    return text;
}

std::string
MemoriesBoard::dumpStats() const
{
    stopLanes();
    std::ostringstream os;
    os << "=== MemorIES board ===\n";
    os << "memory tenures " << global_.value(hTenures_)
       << " committed " << global_.value(hCommitted_)
       << " filtered " << global_.value(hFiltered_)
       << " dropped-on-retry " << global_.value(hDroppedRetry_)
       << " retries-posted " << global_.value(hRetriesPosted_)
       << " lost-inflight " << global_.value(hLostInflight_) << "\n";
    os << "buffer high-water " << buffer_.highWater() << "/"
       << buffer_.capacity() << "\n";
    const std::uint64_t degraded = global_.value(hFaultDropped_) +
                                   global_.value(hSampledOut_) +
                                   global_.value(hShed_) +
                                   global_.value(hQuarantined_);
    if (health_.enabled() || degraded > 0 ||
        global_.value(hHealthTransitions_) > 0) {
        os << "health " << health_.describe() << ": fault-dropped "
           << global_.value(hFaultDropped_) << " sampled-out "
           << global_.value(hSampledOut_) << " shed "
           << global_.value(hShed_) << " quarantined "
           << global_.value(hQuarantined_) << " transitions "
           << global_.value(hHealthTransitions_) << "\n";
    }
    if (injector_)
        os << injector_->dumpStats();
    if (capture_) {
        os << "capture " << capture_->size() << "/"
           << capture_->capacity() << " records";
        if (capture_->dropped() > 0)
            os << " (LOSSY: " << capture_->dropped()
               << " references dropped after fill)";
        os << "\n";
    }
    for (const auto &node : nodes_) {
        const NodeStats s = node->stats();
        os << "node " << static_cast<unsigned>(node->id());
        if (!node->config().label.empty())
            os << " (" << node->config().label << ")";
        os << " [" << node->config().cache.describe() << ", "
           << node->config().protocol.name() << "]\n";
        os << "  refs " << s.localRefs << " hits " << s.localHits
           << " misses " << s.localMisses << " miss-ratio "
           << s.missRatio() << "\n";
        os << "  satisfied: cache " << s.satisfiedByCache << " mod-int "
           << s.satisfiedByModIntervention << " shr-int "
           << s.satisfiedByShrIntervention << " memory "
           << s.satisfiedByMemory << "\n";
        os << "  fills " << s.fills << " evictions clean "
           << s.evictionsClean << " dirty " << s.evictionsDirty
           << " remote-inv " << s.remoteInvalidations << "\n";
    }
    return os.str();
}

void
MemoriesBoard::saveState(ckpt::CheckpointWriter &writer) const
{
    stopLanes();
    {
        ckpt::Sink &sink = writer.section(ckpt::secBoard);
        sink.u64(nodes_.size());
        global_.saveState(sink);
        sink.u8(pending_ ? 1 : 0);
        if (pending_)
            bus::saveTransaction(sink, *pending_);
        sink.u8(pendingRetried_ ? 1 : 0);
        sink.u64(healthCycle_);
        sink.u32(healthTraceId_);
    }
    buffer_.saveState(writer.section(ckpt::secBuffer));
    health_.saveState(writer.section(ckpt::secHealth));
    if (injector_)
        injector_->saveState(writer.section(ckpt::secInjector));
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes_[i]->saveState(writer.section(
            ckpt::secNodeBase + static_cast<std::uint32_t>(i)));
    }
}

void
MemoriesBoard::saveState(const std::string &path) const
{
    ckpt::CheckpointWriter writer;
    saveState(writer);
    writer.writeFile(path, config_.fingerprint());
}

void
MemoriesBoard::loadState(const ckpt::CheckpointImage &image)
{
    stopLanes();
    // Gate on the configuration fingerprint first: a checkpoint from a
    // differently-shaped board is rejected before any section decode.
    const std::vector<std::string> errors =
        config_.validationErrors(image.configFingerprint());
    if (!errors.empty()) {
        std::ostringstream os;
        os << "cannot restore checkpoint (" << errors.size()
           << " problem" << (errors.size() == 1 ? "" : "s") << "):";
        for (const std::string &e : errors)
            os << "\n  - " << e;
        fatal(os.str());
    }

    // The injector's RNG position is load-bearing state: restoring a
    // checkpoint taken with an injector into a board without one (or
    // vice versa) cannot resume deterministically.
    if (image.has(ckpt::secInjector) && !injector_) {
        fatal("checkpoint was taken with a fault injector attached; "
              "attach the same injector before restoring");
    }
    if (!image.has(ckpt::secInjector) && injector_) {
        fatal("checkpoint was taken without a fault injector but one "
              "is attached; detach it before restoring");
    }

    // Load every section into a staged object before touching the
    // live board: copies of the global bank, buffer, health monitor
    // and injector, so their wiring (telemetry histograms, the health
    // hook, the recorder) rides along, and a freshly built controller
    // per node. A throw anywhere leaves the board as it was.
    ckpt::Source boardSrc = image.open(ckpt::secBoard);
    const std::uint64_t nodeCount = boardSrc.u64();
    if (nodeCount != nodes_.size()) {
        fatal(boardSrc.context(), ": checkpoint holds ", nodeCount,
              " nodes but this board has ", nodes_.size());
    }
    CounterBank global = global_;
    global.loadState(boardSrc);
    const std::uint8_t hasPending = boardSrc.u8();
    if (hasPending > 1)
        fatal(boardSrc.context(), ": pending flag must be 0 or 1");
    std::optional<bus::BusTransaction> pending;
    if (hasPending)
        pending = bus::decodeTransaction(boardSrc);
    const bool pendingRetried = boardSrc.u8() != 0;
    const Cycle healthCycle = boardSrc.u64();
    const std::uint32_t healthTraceId = boardSrc.u32();
    boardSrc.expectEnd();

    TransactionBuffer buffer = buffer_;
    loadSection(image, ckpt::secBuffer, buffer);
    fault::HealthMonitor health = health_;
    loadSection(image, ckpt::secHealth, health);
    std::optional<fault::FaultInjector> injector;
    if (injector_) {
        injector.emplace(*injector_);
        loadSection(image, ckpt::secInjector, *injector);
    }
    std::vector<NodeController> nodes;
    nodes.reserve(nodes_.size());
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        nodes.emplace_back(static_cast<NodeId>(i), config_.nodes[i]);
        loadSection(image, ckpt::secNodeBase + static_cast<std::uint32_t>(i),
                    nodes.back());
    }

    // Everything loaded: move the staged objects into the live ones,
    // which keep their addresses (callers hold node(i) and the
    // injector).
    global_ = std::move(global);
    pending_ = pending;
    pendingRetried_ = pendingRetried;
    healthCycle_ = healthCycle;
    healthTraceId_ = healthTraceId;
    buffer_ = std::move(buffer);
    health_ = std::move(health);
    if (injector_)
        *injector_ = std::move(*injector);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        *nodes_[i] = std::move(nodes[i]);
        nodes_[i]->setFlightRecorder(recorder_, boardId_);
    }
}

void
MemoriesBoard::loadState(const std::string &path)
{
    loadState(ckpt::CheckpointImage::fromFile(path));
}

BoardConfig
makeUniformBoard(std::size_t node_count, unsigned cpus_per_node,
                 const cache::CacheConfig &cache,
                 const std::string &protocol_name)
{
    BoardConfig cfg;
    CpuId next_cpu = 0;
    for (std::size_t n = 0; n < node_count; ++n) {
        NodeConfig node;
        node.cache = cache;
        node.protocol = protocol::makeBuiltinTable(protocol_name);
        node.targetMachine = 0;
        node.label = "node" + std::to_string(n);
        for (unsigned c = 0; c < cpus_per_node; ++c)
            node.cpus.push_back(next_cpu++);
        cfg.nodes.push_back(std::move(node));
    }
    return cfg;
}

BoardConfig
makeMultiConfigBoard(const std::vector<cache::CacheConfig> &caches,
                     unsigned cpus, const std::string &protocol_name)
{
    BoardConfig cfg;
    for (std::size_t i = 0; i < caches.size(); ++i) {
        NodeConfig node;
        node.cache = caches[i];
        node.protocol = protocol::makeBuiltinTable(protocol_name);
        node.targetMachine = static_cast<unsigned>(i);
        node.label = caches[i].describe();
        for (unsigned c = 0; c < cpus; ++c)
            node.cpus.push_back(static_cast<CpuId>(c));
        cfg.nodes.push_back(std::move(node));
    }
    return cfg;
}

} // namespace memories::ies
