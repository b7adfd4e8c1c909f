/**
 * @file
 * Per-transaction lifecycle tracing: the board's "flight recorder".
 *
 * PR 2's telemetry answers "how is the run doing" with windowed
 * aggregates; this layer answers "where did *this* bus tenure spend its
 * cycles". Every address tenure is assigned a stable trace id when it
 * is issued, and each stage of its life — bus issue, each snooper's
 * response, the combined response window, commit into (or drop from)
 * the board's transaction buffer, SDRAM-paced retirement, and the
 * per-node cache hit/miss/castout and protocol state transitions it
 * causes — is recorded as one fixed-size LifecycleEvent in a
 * fixed-capacity ring.
 *
 * The ring is an always-on flight recorder in the avionics sense: it
 * never blocks or grows, it simply overwrites oldest-first, and its
 * contents are dumped on demand (console `trace dump`) or
 * automatically when an anomaly fires (transaction-buffer overflow, a
 * fleet board dropping a committed tenure, a bus retry). Components
 * expose attach hooks that store one pointer, so the hot path costs a
 * single branch when no recorder is attached.
 *
 * Threading: a recorder has one writer thread. Everything attached to
 * one recorder (a bus, a board, the board's injector) must be driven
 * by that thread, and snapshot(), recorded() and size() are read on
 * it or after it has been joined. ExperimentFleet::start() refuses a
 * fleet that would break this (two boards, or a board and the tapped
 * bus, sharing a recorder); the intended fleet setup is one recorder
 * per board, which also makes the streams diffable
 * (firstDivergence()).
 */

#ifndef MEMORIES_TRACE_LIFECYCLE_HH
#define MEMORIES_TRACE_LIFECYCLE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bus/transaction.hh"
#include "common/types.hh"

namespace memories::trace
{

/** Stage of a bus tenure's life (or a point event about the run). */
enum class EventKind : std::uint8_t
{
    /** Address tenure issued on the host bus. */
    BusIssue = 0,
    /** One snooper's response to the tenure (node = snooper index). */
    SnoopReply,
    /** Combined snoop response presented by the bus. */
    Combine,
    /** Board accepted the committed tenure into its txn buffer. */
    BoardCommit,
    /** Board dropped the tenure because another agent retried it. */
    BoardDropRetry,
    /** SDRAM side retired the tenure from the txn buffer. */
    Retire,
    /** Emulated shared-cache hit at a node (arg0 = line state). */
    CacheHit,
    /** Emulated shared-cache miss at a node. */
    CacheMiss,
    /** Directory castout (addr = victim line, arg0 = victim state). */
    Castout,
    /** Protocol state transition (arg0 = from, arg1 = to state). */
    StateTransition,
    /**
     * Transaction buffer could not take a tenure; arg0 says what
     * became of it: 0 = a live board posted a bus retry, 1 = dropped
     * without a retry (replayed on a full buffer, or shed by
     * retry-storm backoff), 2 = committed but lost in flight to a
     * commit-time fault (docs/TRACING.md). Fires an anomaly.
     */
    BufferOverflow,
    /** Operator annotation (console `trace mark`; addr = label index). */
    Mark,
    /** Anomaly notification (arg0 = AnomalyKind). */
    Anomaly,
    /** Fault injector fired (arg0 = fault::FaultKind ordinal). */
    FaultInjected,
    /** Directory parity caught a corrupt line and scrubbed it. */
    ParityScrub,
    /** Board health change (arg0 = from, arg1 = to HealthState). */
    HealthTransition,

    NumKinds
};

/** Number of distinct event kinds. */
inline constexpr std::size_t numEventKinds =
    static_cast<std::size_t>(EventKind::NumKinds);

/** Short mnemonic for an event kind ("issue", "commit", ...). */
std::string_view eventKindName(EventKind kind);

/** What tripped an automatic flight-recorder dump. */
enum class AnomalyKind : std::uint8_t
{
    /** Board transaction buffer overflowed: a retry was posted on the
     *  bus, or a committed tenure was lost in flight. */
    TxnBufferOverflow = 0,
    /** A board dropped a tenure without posting a retry: replayed on a
     *  full buffer, or shed by retry-storm backoff. */
    FleetDrop,
    /** The combined bus response was Retry. */
    BusRetry,
    /** Operator-requested dump (console). */
    Manual,
    /** The fault injector fired one planned fault. */
    FaultInjection,
    /** Board health fell to Degraded (set-sampling engaged). */
    HealthDegraded,
    /** Board health fell to Quarantined (board stopped emulating). */
    BoardQuarantined,
};

/** Mnemonic for an anomaly kind. */
std::string_view anomalyKindName(AnomalyKind kind);

/**
 * Label for a HealthTransition event operand (the trace layer renders
 * fault::HealthState ordinals without depending on the fault library).
 */
std::string_view healthStateLabel(std::uint8_t state);

/** Sentinel board/node id for events not tied to one ("the bus"). */
inline constexpr std::uint8_t lifecycleNoOwner = 0xff;

/** One fixed-size lifecycle event. */
struct LifecycleEvent
{
    /** Monotone record sequence number (never resets, survives wrap). */
    std::uint64_t seq = 0;
    /** Bus cycle the event happened at. */
    Cycle cycle = 0;
    /** Line address involved (victim line for Castout; 0 for marks). */
    Addr addr = 0;
    /** Trace id of the bus tenure this event belongs to (0 = none). */
    std::uint32_t traceId = 0;
    EventKind kind = EventKind::BusIssue;
    /** Fleet board index (lifecycleNoOwner for bus-level events). */
    std::uint8_t board = lifecycleNoOwner;
    /** Node-controller index (or snooper index for SnoopReply). */
    std::uint8_t node = lifecycleNoOwner;
    /** Requesting CPU of the tenure. */
    std::uint8_t cpu = 0;
    bus::BusOp op = bus::BusOp::Read;
    /** Kind-specific small operands (states, responses, flags). */
    std::uint8_t arg0 = 0;
    std::uint8_t arg1 = 0;

    bool operator==(const LifecycleEvent &o) const
    {
        return seq == o.seq && cycle == o.cycle && addr == o.addr &&
               traceId == o.traceId && kind == o.kind &&
               board == o.board && node == o.node && cpu == o.cpu &&
               op == o.op && arg0 == o.arg0 && arg1 == o.arg1;
    }

    /** One-line human-readable rendering ("trace show"). */
    std::string describe() const;
};

/**
 * Fixed-capacity overwrite-oldest ring of lifecycle events.
 *
 * record() stamps the next sequence number and writes in place, with
 * no allocation after construction; it relies on the one writer
 * thread the file comment requires. Once the ring has wrapped,
 * the oldest events are the ones overwritten; sequence numbers keep
 * counting, so a dump shows exactly how much history was lost.
 */
class FlightRecorder
{
  public:
    /** The largest ring: 2^22 events, 160 MiB. */
    static constexpr std::size_t maxCapacity = std::size_t{1} << 22;

    /**
     * @param capacity Events retained (rounded up to a power of two,
     *        minimum 16). A 64K-event ring is ~2.5MB and covers several
     *        thousand tenures of full lifecycle history. A capacity
     *        above maxCapacity is a FatalError, before any allocation.
     */
    explicit FlightRecorder(std::size_t capacity = std::size_t{1} << 16);

    /** Append one event; its seq field is assigned by the recorder. */
    void record(LifecycleEvent ev)
    {
        ev.seq = next_++;
        ring_[ev.seq & mask_] = ev;
    }

    /** Mark labels kept: older marks' labels read "?". */
    static constexpr std::size_t maxMarkLabels = 1024;

    /** Longest mark label in bytes. */
    static constexpr std::size_t maxMarkLabelBytes = 256;

    /**
     * Record an operator Mark with a label. A label longer than
     * maxMarkLabelBytes is a FatalError and records nothing.
     */
    void mark(const std::string &label, Cycle cycle);

    /**
     * Record an Anomaly event and fire the auto-dump hook, if any.
     * Defined inline so bus-side emitters need no link dependency on
     * the trace library.
     * @param traceId Tenure at fault (0 when not tied to one).
     */
    void notifyAnomaly(AnomalyKind kind, Cycle cycle,
                       std::uint32_t traceId = 0)
    {
        LifecycleEvent ev;
        ev.kind = EventKind::Anomaly;
        ev.cycle = cycle;
        ev.traceId = traceId;
        ev.arg0 = static_cast<std::uint8_t>(kind);
        record(ev);
        ++anomalies_;
        if (anomalyHook_)
            anomalyHook_(*this, ev);
    }

    /**
     * Hook invoked (synchronously, on the recording thread) after each
     * Anomaly event is recorded — the place to dump the ring to disk.
     * The recorder passes itself and the anomaly event.
     */
    void onAnomaly(std::function<void(const FlightRecorder &,
                                      const LifecycleEvent &)> hook)
    {
        anomalyHook_ = std::move(hook);
    }

    /**
     * Copy out the retained events, oldest first (ascending seq). Read
     * on the writer thread or after it has been joined (file comment).
     */
    std::vector<LifecycleEvent> snapshot() const;

    /** Events recorded since construction (including overwritten). */
    std::uint64_t recorded() const { return next_; }

    /** Events currently retained (min(recorded, capacity)). */
    std::uint64_t size() const;

    /** Events lost to ring wrap (recorded - size). */
    std::uint64_t overwritten() const { return recorded() - size(); }

    /** Ring capacity in events (power of two). */
    std::size_t capacity() const { return mask_ + 1; }

    /** Anomaly notifications so far. */
    std::uint64_t anomalies() const { return anomalies_; }

    /**
     * Label text of Mark event @p index (addr of the Mark event), or
     * "?" once maxMarkLabels newer marks have replaced it.
     */
    const std::string &markLabel(std::size_t index) const;

  private:
    std::vector<LifecycleEvent> ring_;
    std::uint64_t mask_;
    std::uint64_t next_ = 0;
    std::uint64_t anomalies_ = 0;
    /** Marks recorded; mark i's label is markLabels_[i % maxMarkLabels]. */
    std::uint64_t marks_ = 0;
    std::vector<std::string> markLabels_;
    std::function<void(const FlightRecorder &, const LifecycleEvent &)>
        anomalyHook_;
};

/**
 * First index at which two event streams diverge, ignoring the board
 * id (streams from differently-configured fleet boards are expected to
 * differ only where the configuration changes behaviour). Returns the
 * common length when one stream is a prefix of the other, and
 * SIZE_MAX when the streams are equivalent. Sequence numbers are
 * compared by offset from each stream's first event, so two recorders
 * that started at different times still align.
 */
std::size_t firstDivergence(const std::vector<LifecycleEvent> &a,
                            const std::vector<LifecycleEvent> &b);

} // namespace memories::trace

#endif // MEMORIES_TRACE_LIFECYCLE_HH
