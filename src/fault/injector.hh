/**
 * @file
 * The fault injector: a FaultPlan executed against a tenure stream.
 *
 * One injector serves one board (or one live bus) and owns one seeded
 * generator, so every decision is a pure function of (plan, seed,
 * tenure stream) — same inputs, byte-identical fault sequence. It
 * plugs into the existing attach points:
 *
 *  - On a live bus it is just another BusSnooper: SpuriousRetry specs
 *    make it post Retry responses for real tenures (never for replays,
 *    so an unlucky seed cannot livelock the host).
 *  - A MemoriesBoard holding an injector calls onTenure() on every
 *    snooped/fed tenure — DropReply makes the board miss the tenure,
 *    DelayReply shifts its arrival cycle, AddressFlip corrupts the
 *    snooped address — and onCommit() as a tenure enters the
 *    transaction buffer, where TagFlip, SlotLoss, and RetirementStall
 *    fire (slot loss lands *after* the snoop-time capacity check, so
 *    it exercises the board's lost-in-flight recovery path the
 *    hardware could never test).
 *
 * An empty plan draws nothing and mutates nothing: a board with a
 * null-plan injector attached is bit-exact to one without (enforced by
 * tests/fault/null_equivalence_test.cc).
 */

#ifndef MEMORIES_FAULT_INJECTOR_HH
#define MEMORIES_FAULT_INJECTOR_HH

#include <cstdint>
#include <string>

#include "bus/bus6xx.hh"
#include "checkpoint/codec.hh"
#include "common/counters.hh"
#include "common/random.hh"
#include "fault/faultplan.hh"
#include "trace/lifecycle.hh"

namespace memories::fault
{

/** Executes one FaultPlan deterministically. */
class FaultInjector final : public bus::BusSnooper
{
  public:
    explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 1);

    /** Live-bus side: spurious retries (attach via Bus6xx::attach). */
    bus::SnoopResponse snoop(const bus::BusTransaction &txn) override;
    std::string snooperName() const override
    {
        return "fault-injector";
    }

    /** What the stream-side faults did to one observed tenure. */
    struct StreamFaults
    {
        /** DropReply fired: the board never sees this tenure. */
        bool drop = false;
    };

    /**
     * Board hook, one call per snooped/fed memory tenure. May mutate
     * @p txn in place (AddressFlip, DelayReply); returns the drop
     * decision.
     */
    StreamFaults onTenure(bus::BusTransaction &txn);

    /** What the commit-time faults ask the board to apply. */
    struct CommitFaults
    {
        /** RetirementStall: no drain credits until this bus cycle. */
        Cycle stallUntil = 0;
        bool stall = false;
        /** SlotLoss: lose this many buffer slots until slotsUntil. */
        std::size_t slots = 0;
        Cycle slotsUntil = 0;
        bool slotLoss = false;
        /** TagFlip: corrupt the current line's tag state at a node. */
        std::uint8_t tagNode = 0;
        unsigned tagBit = 0;
        bool tagFlip = false;
    };

    /** Board hook, one call per tenure entering the txn buffer. */
    CommitFaults onCommit(const bus::BusTransaction &txn);

    /**
     * Record a FaultInjected lifecycle event (plus a FaultInjection
     * anomaly) for every fault that fires. A board attaching both a
     * recorder and an injector forwards the recorder here itself.
     */
    void setFlightRecorder(trace::FlightRecorder *recorder,
                           std::uint8_t board = trace::lifecycleNoOwner)
    {
        recorder_ = recorder;
        boardId_ = board;
    }

    const FaultPlan &plan() const { return plan_; }
    std::uint64_t seed() const { return seed_; }

    /** Injection counters, one "faults.<kind>" per fault kind. */
    const CounterBank &counters() const { return counters_; }

    /** Faults of @p kind injected so far. */
    std::uint64_t injected(FaultKind kind) const
    {
        return counters_.value(
            hKind_[static_cast<std::size_t>(kind)]);
    }

    /** Total faults injected across every kind. */
    std::uint64_t totalInjected() const;

    /** One-line-per-kind console rendering ("fault status"). */
    std::string dumpStats() const;

    /**
     * StateCodec: append the injector's dynamic state — seed and plan
     * identity (for cross-checking at restore), the Bernoulli RNG
     * stream position, the three opportunity counts, and the injection
     * counters — to @p sink. The plan itself is not serialized; a
     * restore requires the same plan to be attached and cross-checks
     * it by hash.
     */
    void saveState(ckpt::Sink &sink) const;

    /**
     * StateCodec: load a saveState() payload straight into this
     * injector. fatal() when the saved seed or plan hash differs from
     * this injector's (the checkpointed fault schedule would not
     * resume deterministically) or the RNG stream is all zero. A throw
     * can leave the injector half-loaded, so a restore loads into a
     * staged copy (MemoriesBoard::loadState).
     */
    void loadState(ckpt::Source &source);

  private:
    /**
     * Should @p spec fire at opportunity @p index (1-based count of
     * the relevant hook's calls)? Scheduled specs compare the index;
     * probabilistic specs consume one Bernoulli draw — every
     * opportunity of every probabilistic spec draws exactly once, in
     * plan order, so the stream of draws is independent of what fired.
     */
    bool fires(const FaultSpec &spec, std::uint64_t index);

    /** Count the fault and emit its lifecycle/anomaly events. */
    void note(const FaultSpec &spec, const bus::BusTransaction &txn);

    FaultPlan plan_;
    std::uint64_t seed_;
    Rng rng_;
    std::uint64_t busTenures_ = 0;    //!< snoop() opportunities
    std::uint64_t streamTenures_ = 0; //!< onTenure() opportunities
    std::uint64_t commits_ = 0;       //!< onCommit() opportunities

    CounterBank counters_;
    CounterBank::Handle hKind_[numFaultKinds];

    trace::FlightRecorder *recorder_ = nullptr;
    std::uint8_t boardId_ = trace::lifecycleNoOwner;
};

} // namespace memories::fault

#endif // MEMORIES_FAULT_INJECTOR_HH
