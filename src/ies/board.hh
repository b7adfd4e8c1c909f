/**
 * @file
 * The MemorIES board: address filter, global event counters,
 * transaction buffering, and up to four (logically eight) lock-stepped
 * node controllers, plugged into the host's 6xx bus as a passive
 * snooper.
 *
 * Passivity is structural: the board receives transactions through the
 * BusSnooper/BusObserver interfaces and holds no reference to any host
 * cache. Its only possible effect on the host is the retry it posts
 * when its transaction buffers overflow (paper section 3.3 — never
 * observed below 42% sustained utilization).
 */

#ifndef MEMORIES_IES_BOARD_HH
#define MEMORIES_IES_BOARD_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "common/counters.hh"
#include "fault/health.hh"
#include "ies/boardconfig.hh"
#include "ies/nodecontroller.hh"
#include "ies/txnbuffer.hh"
#include "trace/capture.hh"

namespace memories::fault
{
class FaultInjector;
} // namespace memories::fault

namespace memories::ckpt
{
class CheckpointWriter;
class CheckpointImage;
} // namespace memories::ckpt

namespace memories::profile
{
class Profiler;
} // namespace memories::profile

namespace memories::ies
{

/**
 * The complete emulation board.
 *
 * Threading: admission, pacing, the transaction buffer and retries run
 * on the calling (bus) thread. A board whose nodes form two or more
 * target machines, with nothing watching per-tenure effects (no flight
 * recorder, no fault injector, health monitoring off, no telemetry),
 * in a process that may run on two or more CPUs, emulates its machines
 * on lane threads: each tenure the SDRAM side retires on the
 * per-tenure path (snoop/observeResult, feedCommitted) goes to
 * min(machines, CPUs - 1) lanes, and machine g is emulated by lane
 * g mod lanes in retirement order. Every reader of node state and
 * every hook change is a stop point that flushes the lanes and joins
 * them first, so one thread at a time touches a node and every
 * counter, directory and checkpoint byte equals the serial board's
 * (DESIGN.md, "Threading"). A caller must not hold a node reference
 * across a run.
 */
class MemoriesBoard : public bus::BusSnooper, public bus::BusObserver
{
  public:
    explicit MemoriesBoard(const BoardConfig &config,
                           std::uint64_t seed = 1);
    ~MemoriesBoard() override;

    MemoriesBoard(const MemoriesBoard &) = delete;
    MemoriesBoard &operator=(const MemoriesBoard &) = delete;

    /**
     * Factory returning an owned board. The board is neither copyable
     * nor movable (the bus holds raw snooper/observer pointers into
     * it), so contexts that transfer ownership — ExperimentFleet,
     * containers of boards — standardize on this.
     */
    static std::unique_ptr<MemoriesBoard> make(const BoardConfig &config,
                                               std::uint64_t seed = 1);

    /** Attach to the host bus (snoop + response-window observer). */
    void plugInto(bus::Bus6xx &bus);

    /** Detach from the host bus. */
    void unplug(bus::Bus6xx &bus);

    /** BusSnooper: filter, pace, and Retry only on buffer overflow. */
    bus::SnoopResponse snoop(const bus::BusTransaction &txn) override;
    std::string snooperName() const override { return "memories-board"; }

    /** BusObserver: commit or drop the tenure once responses combine. */
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;

    /**
     * Replay path: feed one already-committed tenure (a tenure some
     * live bus completed without a Retry). Behaves exactly like
     * snoop() followed by observeResult() for that tenure — same
     * counters, same pacing, same capacity check — minus the
     * response-window bookkeeping a live bus needs.
     *
     * @return false when the transaction buffer was full, i.e. the
     *         point where a live board would have posted a bus retry
     *         (retries_posted is counted either way; the recorder sees
     *         a drop, BufferOverflow arg0 1, instead of a retry); the
     *         caller decides how to surface the dropped tenure.
     */
    bool feedCommitted(const bus::BusTransaction &txn);

    /**
     * Batch replay path: feed @p count already-committed tenures in
     * one call. Bit-exact to calling feedCommitted() per element —
     * same counters, same pacing, same retirement order, same
     * lifecycle-event bytes. When nothing observes per-tenure effects
     * (no injector, no recorder, health monitoring off) it admits the
     * whole batch first and then emulates its retirements in one
     * prefetching pass over the retirement slab; otherwise it is
     * feedCommitted() per element (docs/BATCH.md). A stop point:
     * running lanes finish first, and the batch runs on the calling
     * thread.
     *
     * @param accepted Optional out array of @p count flags mirroring
     *        each feedCommitted() return value.
     * @return the number of accepted tenures.
     */
    std::size_t feedBatch(const bus::BusTransaction *txns,
                          std::size_t count, bool *accepted = nullptr);
    std::size_t feedBatch(const std::vector<bus::BusTransaction> &txns,
                          bool *accepted = nullptr);

    /**
     * Process everything still sitting in the transaction buffers
     * (call at the end of a measurement; the host has gone quiet so
     * the SDRAM side catches up).
     */
    void drainAll();

    std::size_t numNodes() const { return nodes_.size(); }

    /** Node @p i. A stop point: running lanes finish first (see the
     *  class comment), so the node is whole when the caller reads it. */
    NodeController &node(std::size_t i)
    {
        stopLanes();
        return *nodes_[i];
    }
    const NodeController &node(std::size_t i) const
    {
        stopLanes();
        return *nodes_[i];
    }

    /** Board-level (global-events FPGA) counters. */
    const CounterBank &globalCounters() const { return global_; }

    /** Retries the board itself posted (should stay 0 below 42% util). */
    std::uint64_t retriesPosted() const;

    /** Deepest buffer occupancy seen. */
    std::size_t bufferHighWater() const { return buffer_.highWater(); }

    /** Tenures currently awaiting retirement (oracle diffing). */
    std::size_t bufferSize() const { return buffer_.size(); }

    /** Tenures the SDRAM side has retired (oracle diffing). */
    std::uint64_t bufferRetired() const { return buffer_.retired(); }

    /**
     * Mutation-free admission walk: how many of @p txns, fed in order,
     * this board would accept before the first one that finds the
     * transaction buffer full at its own bus cycle
     * (TransactionBuffer::admissiblePrefix). Exact for a board with no
     * hooks attached; with an injector or health monitoring it is
     * conservative, since drops, sampling and shedding take no slot.
     * The IESSERV admission controller meters paced feed lines with
     * this (docs/SERVICE.md).
     */
    std::size_t admissiblePrefix(const bus::BusTransaction *txns,
                                 std::size_t count) const
    {
        return buffer_.admissiblePrefix(txns, count);
    }

    /** Trace-capture buffer, when the mode is enabled. */
    trace::CaptureBuffer *captureBuffer()
    {
        return capture_ ? &*capture_ : nullptr;
    }
    const trace::CaptureBuffer *captureBuffer() const
    {
        return capture_ ? &*capture_ : nullptr;
    }

    /** Clear all counters (node + global); keeps directories warm. */
    void clearCounters();

    /** Cold-start every directory and clear counters. */
    void reset();

    /** Multi-line human-readable statistics dump (console "stats"). */
    std::string dumpStats() const;

    /** Raw counter dump (console "counters"): global bank, then nodes'. */
    std::string dumpCounters() const;

    /**
     * Checkpoint the complete board state to @p path as an IESCKPT
     * container (docs/FORMATS.md section 7).
     *
     * Section 4.2 notes that, unlike Embra, the hardware board cannot
     * checkpoint and reposition a workload. A software board can — and
     * the capture is exact: directories *with* replacement metadata
     * (recency stamps, PLRU bits, per-set replacement RNGs), every
     * 40-bit counter bank, the transaction buffer's in-flight entries
     * and pacing credits, active fault windows, the health state
     * machine, and any attached fault injector's RNG stream. A run
     * resumed from the checkpoint retires, counts, and traces
     * byte-identically to one that never stopped. The only state not
     * captured is the on-board trace-capture buffer's *contents* (its
     * mode is part of the fingerprinted configuration).
     */
    void saveState(const std::string &path) const;

    /** Checkpoint into @p writer (caller renders/stores the bytes). */
    void saveState(ckpt::CheckpointWriter &writer) const;

    /**
     * Restore a board checkpointed by saveState(). Fails closed: the
     * checkpoint's config fingerprint must match this board's (see
     * BoardConfig::validationErrors(fingerprint)), an injector must be
     * attached iff one was attached at save time, and every section
     * must decode cleanly — any failure is a fatal() diagnostic that
     * leaves the board completely untouched. Each section loads into
     * a staged object, and the live components take the staged state
     * only once every section loaded; node(i) and the attached
     * injector keep their addresses.
     */
    void loadState(const std::string &path);

    /** Restore from an already-validated container image. */
    void loadState(const ckpt::CheckpointImage &image);

    const BoardConfig &config() const { return config_; }

    /**
     * Register this board's observables with a telemetry sampler: the
     * global-events bank and every node bank (windowed, wrap-correct
     * deltas), a buffer-occupancy gauge, plus two histograms fed by the
     * transaction buffer — occupancy at each accepted push and
     * snoop-to-commit latency in bus cycles at each paced retirement.
     * Metric names are prefixed "<prefix>."; pass distinct prefixes to
     * tell boards apart in one sampler.
     *
     * Threading: registered sources are read on the sampler's (bus
     * time) thread. Only attach a board that is emulated on that same
     * thread — never a live ExperimentFleet worker board. An attached
     * board starts no lane from then on.
     */
    void attachTelemetry(telemetry::Sampler &sampler,
                         const std::string &prefix = "board");

    /**
     * Attach a flight recorder to the board and all of its node
     * controllers. The board then emits the board-side lifecycle of
     * every tenure — BoardCommit when it enters the transaction
     * buffer, Retire when the SDRAM side retires it, BoardDropRetry
     * when another agent's retry voids it — and BufferOverflow plus a
     * TxnBufferOverflow/FleetDrop anomaly when the buffer fills; the
     * nodes emit hit/miss/castout/state-transition events. @p boardId
     * tags every event (fleet board index; default: a lone board).
     * Costs one null check per tenure when detached.
     */
    void attachFlightRecorder(trace::FlightRecorder &recorder,
                              std::uint8_t boardId =
                                  trace::lifecycleNoOwner);

    /** Stop emitting lifecycle events (board and nodes). */
    void detachFlightRecorder();

    /** Currently attached flight recorder (nullptr when detached). */
    trace::FlightRecorder *flightRecorder() const { return recorder_; }

    /**
     * Attach a fault injector: the board then routes every snooped/fed
     * tenure through FaultInjector::onTenure (drops, delays, address
     * flips) and every commit through onCommit (tag flips, slot loss,
     * retirement stalls). One injector serves one board — sharing
     * breaks per-board determinism. An injector with an empty plan
     * leaves the board bit-exact to an unattached one. The caller
     * keeps ownership; detach before destroying the injector. Costs
     * one null check per tenure when detached.
     */
    void attachFaultInjector(fault::FaultInjector &injector);

    /** Stop injecting faults. */
    void detachFaultInjector();

    /** Currently attached injector (nullptr when detached). */
    fault::FaultInjector *faultInjector() const { return injector_; }

    /**
     * Attach an IESPROF profiler: the batch hot path then attributes
     * its wall-clock to pipeline stages (src/profile/profiler.hh).
     * The profiler only observes the
     * emulator — tests/profile/prof_equiv_test.cc proves every
     * emulated byte (counters, directories, retirement order,
     * chrome-trace bytes) identical attached vs detached. One
     * profiler serves one board; the caller keeps ownership. Costs
     * one null check per hook site when detached, like the recorder
     * and injector.
     */
    void attachProfiler(profile::Profiler &profiler);

    /** Stop profiling (the profiler keeps its accumulated data). */
    void detachProfiler();

    /** Currently attached profiler (nullptr when detached). */
    profile::Profiler *profiler() const { return prof_; }

    /** Where this board sits on the degradation ladder. */
    fault::HealthState healthState() const { return health_.state(); }

    /** The health monitor (policy, state, console rendering). */
    const fault::HealthMonitor &health() const { return health_; }

    /**
     * Recover a quarantined board by mirroring @p healthy's directories
     * through the same StateCodec the checkpoint path uses (each
     * healthy node's saveState, loaded into a staged controller), so
     * the copy is exact down to recency stamps and replacement RNG
     * streams. Node counts and geometries must match; fatal() before
     * anything is touched otherwise. Only the directories move:
     * counters stay (a resynced board keeps its own history, unlike a
     * checkpoint restore), stale buffered tenures predate the new
     * directories and are discarded (counted as lost in flight), and
     * health returns to Healthy.
     */
    void resyncFrom(const MemoriesBoard &healthy);

    /** Tenures lost between the capacity check and the buffer. */
    std::uint64_t tenuresLostInflight() const
    {
        return global_.value(hLostInflight_);
    }

  private:
    /** Nodes of one target machine, in first-appearance order. */
    struct MachineGroup
    {
        unsigned machine;
        std::vector<std::uint8_t> nodes;
    };

    /** What admission decided for one memory tenure. */
    enum class Verdict : std::uint8_t
    {
        Filtered, //!< not a memory tenure: the address filter dropped it
        Ignored,  //!< counted, then fault-dropped, quarantined, sampled
                  //!< out or shed: never buffered, never retried
        Full,     //!< no room: a live bus gets a Retry, replay a drop
        Accepted, //!< room in the buffer: commit it
    };

    /** BufferOverflow arg0 codes (docs/TRACING.md). */
    static constexpr std::uint8_t overflowRetried = 0;
    static constexpr std::uint8_t overflowDropped = 1;
    static constexpr std::uint8_t overflowLost = 2;

    /**
     * The board's one admission sequence, shared by snoop(),
     * feedCommitted() and feedBatch(): address filter, global-event
     * counters, stream faults, credit pacing, quarantine, degraded
     * sampling, capacity (with retry-storm shedding). @p t is the
     * snooped tenure; stream faults may rewrite it in place.
     *
     * @p Hooks false is the hook-free instantiation feedBatch runs
     * when no injector or recorder is attached and health monitoring
     * is off: every hook is then a no-op, so it is compiled out, and
     * retirements are deferred to the retirement slab.
     */
    template <bool Hooks>
    Verdict admit(bus::BusTransaction &t);

    /**
     * Accept @p txn into the transaction buffer: count the commit,
     * record/capture it, fire commit-time faults, and recover (never
     * panic) if a fault shrank the buffer after the capacity check.
     */
    template <bool Hooks>
    void commit(const bus::BusTransaction &txn, Cycle event_cycle);

    /** Replay one committed tenure: admit, then commit or drop. */
    template <bool Hooks>
    bool replay(const bus::BusTransaction &txn);

    /** feedBatch's admission loop: replay() per element. */
    template <bool Hooks>
    std::size_t admitBatch(const bus::BusTransaction *txns,
                           std::size_t count, bool *accepted);

    /** BufferOverflow event with arg0 @p code, plus its anomaly. */
    void recordOverflow(const bus::BusTransaction &txn, Cycle cycle,
                        std::uint8_t code);

    /** One lock-step emulation step of target machine @p m; nodes
     *  record to their own recorder. */
    void emulateMachine(const MachineGroup &m,
                        const bus::BusTransaction &txn);

    /** One lock-step emulation step: every machine in turn. */
    void emulateStep(const bus::BusTransaction &txn);

    /** Lane threads and their ring (board.cc). */
    struct Lanes;

    /** True when retirements go to the lanes (see the class comment). */
    bool lanesWanted() const
    {
        // occupancyHist_ exists once a sampler holds the banks.
        return laneCount_ != 0 && recorder_ == nullptr &&
               injector_ == nullptr && !health_.enabled() &&
               occupancyHist_ == nullptr;
    }

    /** Hand one retired tenure to the lanes, starting them first. */
    void toLanes(const bus::BusTransaction &txn);

    /** Start laneCount_ lanes; false (and serial from then on) when
     *  the system has no thread to give. */
    bool startLanes();

    /** Lane @p lane's loop: emulate its machines in ring order. */
    void laneMain(Lanes &lanes, std::size_t lane);

    /** Stop point: flush, close and join the lanes, rethrowing a
     *  lane's exception here. A no-op when no lane runs. */
    void stopLanes() const
    {
        if (lanes_)
            joinLanes(true);
    }

    /** Flush, close and join the lanes; rethrow the first lane's
     *  exception iff @p rethrow. */
    void joinLanes(bool rethrow) const;

    /**
     * Let the SDRAM side retire what it has earned by @p now. The
     * hooked instantiation emulates each retirement as it drains; the
     * hook-free one appends them to retireSlab_ for emulateSlab().
     */
    template <bool Hooks>
    void drainDue(Cycle now);

    /** The batch emulation loop: emulate and clear retireSlab_ in
     *  retirement order. */
    void emulateSlab();

    /** Apply the injector's commit-time faults for @p txn. */
    void applyCommitFaults(const bus::BusTransaction &txn);

    /** Build the common fields of a board-level lifecycle event. */
    trace::LifecycleEvent makeEvent(trace::EventKind kind,
                                    const bus::BusTransaction &txn,
                                    Cycle cycle) const
    {
        trace::LifecycleEvent ev;
        ev.kind = kind;
        ev.cycle = cycle;
        ev.addr = txn.addr;
        ev.traceId = txn.traceId;
        ev.board = boardId_;
        ev.cpu = txn.cpu;
        ev.op = txn.op;
        return ev;
    }

    BoardConfig config_;
    std::vector<std::unique_ptr<NodeController>> nodes_;
    TransactionBuffer buffer_;
    std::optional<trace::CaptureBuffer> capture_;

    /** Owned by the board, fed by buffer_ (see attachTelemetry). */
    std::unique_ptr<telemetry::Histogram> occupancyHist_;
    std::unique_ptr<telemetry::Histogram> commitLatencyHist_;

    /** Tenure seen by snoop() awaiting its response window. */
    std::optional<bus::BusTransaction> pending_;
    bool pendingRetried_ = false;

    trace::FlightRecorder *recorder_ = nullptr;
    std::uint8_t boardId_ = trace::lifecycleNoOwner;
    /** Lanes a lane run starts; 0 when the board always runs serially
     *  (one machine, or a single usable CPU). */
    std::uint8_t laneCount_ = 0;

    fault::FaultInjector *injector_ = nullptr;
    profile::Profiler *prof_ = nullptr;
    fault::HealthMonitor health_;
    /** Stamp for health-transition events (last tenure seen). */
    Cycle healthCycle_ = 0;
    std::uint32_t healthTraceId_ = 0;
    unsigned healthLineShift_ = 0; //!< line shift for degraded sampling

    /** Running lanes, or null. Stop points are const readers too. */
    mutable std::unique_ptr<Lanes> lanes_;

    CounterBank global_;
    CounterBank::Handle hTenures_, hCommitted_, hFiltered_,
        hDroppedRetry_, hReads_, hWrites_, hWritebacks_, hRetriesPosted_;
    CounterBank::Handle hLostInflight_, hFaultDropped_, hSampledOut_,
        hShed_, hQuarantined_, hHealthTransitions_;

    /** Target-machine groups, precomputed for the emulation step. */
    std::vector<MachineGroup> machines_;

    /** Tenures a hook-free feedBatch retired, in retirement order;
     *  empty outside that call. */
    std::vector<bus::BusTransaction> retireSlab_;
};

/**
 * Build the common single-target-machine configuration: @p node_count
 * nodes, @p cpus_per_node CPUs each (CPU IDs assigned round-robin
 * contiguously), every node with geometry @p cache and protocol
 * @p protocol_name.
 */
BoardConfig makeUniformBoard(std::size_t node_count,
                             unsigned cpus_per_node,
                             const cache::CacheConfig &cache,
                             const std::string &protocol_name = "MESI");

/**
 * Build the Figure 4 style multi-configuration board: every entry of
 * @p caches becomes one node emulating the *same* target node (all
 * CPUs 0..cpus-1 local) in its own target-machine group, so several
 * geometries are measured against identical traffic in one run.
 */
BoardConfig makeMultiConfigBoard(const std::vector<cache::CacheConfig>
                                     &caches,
                                 unsigned cpus,
                                 const std::string &protocol_name =
                                     "MESI");

} // namespace memories::ies

#endif // MEMORIES_IES_BOARD_HH
