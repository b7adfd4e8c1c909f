/**
 * @file
 * Per-board health state machine: graceful degradation instead of
 * silent loss.
 *
 * The hardware board had one answer to overload — post a bus Retry and
 * hope (section 3.3). A software board can do better: under sustained
 * buffer pressure it *degrades* to set-sampling (keeping a statistically
 * useful 1-in-2^shift sample of tenures instead of dropping an
 * unprincipled tail), a retry-storm watchdog applies bounded
 * exponential backoff (retry once, then shed 2^k tenures before
 * retrying again), and a board stuck in storms is *quarantined* — it
 * stops emulating until an operator resyncs its directories from a
 * healthy board via the checkpoint/restore path.
 *
 *          sustained pressure / overflow      storm limit
 *   Healthy ---------------------------> Degraded ------> Quarantined
 *      ^                                    |                  |
 *      +------- recoverWindow calm admits --+   resync() ------+
 *
 * The machine is pure bookkeeping: it never touches the buffer or the
 * bus itself; the board asks it what to do and applies the answer, so
 * every decision is deterministic in the tenure stream. Disabled
 * (the default) every query returns the pass-through answer and the
 * board behaves bit-exactly like one without a monitor.
 */

#ifndef MEMORIES_FAULT_HEALTH_HH
#define MEMORIES_FAULT_HEALTH_HH

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "checkpoint/codec.hh"
#include "common/types.hh"

namespace memories::fault
{

/** Tunables of the board health machine. All thresholds in tenures. */
struct HealthPolicy
{
    /** Off by default: an unconfigured board is bit-exact to PR 3. */
    bool enabled = false;
    /** Occupancy (percent of capacity) that counts as pressure. */
    unsigned degradeOccupancyPercent = 75;
    /** Consecutive pressured admits before Healthy -> Degraded. */
    unsigned degradeWindow = 64;
    /** Consecutive calm admits before Degraded -> Healthy. */
    unsigned recoverWindow = 4096;
    /** Set-sampling shift applied while Degraded (keep 1 in 2^shift). */
    unsigned degradedSamplingShift = 1;
    /** Max backoff exponent: shed at most 2^limit tenures per retry. */
    unsigned backoffLimit = 6;
    /** Retry storms before Degraded -> Quarantined (0 = never). */
    unsigned quarantineStorms = 8;
};

/** Where a board sits on the degradation ladder. */
enum class HealthState : std::uint8_t
{
    Healthy = 0,
    Degraded,
    Quarantined,
};

/** Mnemonic for a health state ("healthy", ...). */
std::string_view healthStateName(HealthState state);

/**
 * The bounded exponential-backoff step shared by the retry-storm
 * watchdog and the campaign scheduler: after @p attempt consecutive
 * failures, hold off for 2^min(attempt, limit) units of work (shed
 * tenures here, skipped scheduling rounds in src/campaign).
 */
inline std::uint64_t
backoffUnits(unsigned attempt, unsigned limit)
{
    return std::uint64_t{1} << (attempt < limit ? attempt : limit);
}

/** The watchdog's verdict when the transaction buffer is full. */
enum class OverflowAction : std::uint8_t
{
    /** Post the bus retry (live) / report the drop (fed), as today. */
    Retry = 0,
    /** Backoff: shed this tenure without retrying. */
    Shed,
};

/** Decision engine driven by the board's admit/overflow stream. */
class HealthMonitor
{
  public:
    HealthMonitor() = default;
    explicit HealthMonitor(const HealthPolicy &policy) : policy_(policy)
    {}

    const HealthPolicy &policy() const { return policy_; }
    bool enabled() const { return policy_.enabled; }
    HealthState state() const { return state_; }

    /**
     * Hook fired on every state change, synchronously, before the call
     * that caused it returns — the board's place to bump counters and
     * record HealthTransition lifecycle events.
     */
    using TransitionHook =
        std::function<void(HealthState from, HealthState to)>;
    void onTransition(TransitionHook hook) { hook_ = std::move(hook); }

    /**
     * Degraded-mode set sampling: true when @p addr (with lines of
     * 2^@p line_shift bytes) falls outside the retained 1-in-2^shift
     * sample and the tenure should be skipped. Always false unless
     * the board is Degraded.
     */
    bool sampledOut(Addr addr, unsigned line_shift) const
    {
        if (state_ != HealthState::Degraded)
            return false;
        const Addr mask =
            (Addr{1} << policy_.degradedSamplingShift) - 1;
        return ((addr >> line_shift) & mask) != 0;
    }

    /**
     * Feedback after a tenure cleared the capacity check: @p occupancy
     * of @p capacity slots were in use. Ends any retry storm and moves
     * the pressure/recovery windows.
     */
    void onAdmit(std::size_t occupancy, std::size_t capacity);

    /** The buffer is full: retry (pass-through) or shed (backoff)? */
    OverflowAction onOverflow();

    /**
     * Directories were resynced from a healthy board: return to
     * Healthy and restart every window.
     */
    void resync();

    /** One-line console rendering ("health status"). */
    std::string describe() const;

    /**
     * StateCodec: append the machine position (ladder state plus the
     * pressure/recovery/storm/backoff counters) to @p sink. The policy
     * itself is board configuration (fingerprinted in the checkpoint
     * header), so only the dynamic state is serialized.
     */
    void saveState(ckpt::Sink &sink) const;

    /**
     * StateCodec: load a saveState() payload straight into this
     * monitor; fatal() on an unknown ladder state. Sets the ladder
     * position directly — restoring a checkpoint resumes a run rather
     * than transitioning within one, so the transition hook does NOT
     * fire. A throw can leave the monitor half-loaded, so a restore
     * loads into a staged copy (MemoriesBoard::loadState).
     */
    void loadState(ckpt::Source &source);

  private:
    void moveTo(HealthState to);

    HealthPolicy policy_;
    HealthState state_ = HealthState::Healthy;
    unsigned pressured_ = 0;       //!< consecutive pressured admits
    unsigned calm_ = 0;            //!< consecutive calm admits
    unsigned storms_ = 0;          //!< retries since last admit
    std::uint64_t shedRemaining_ = 0; //!< backoff tenures left to shed
    TransitionHook hook_;
};

} // namespace memories::fault

#endif // MEMORIES_FAULT_HEALTH_HH
