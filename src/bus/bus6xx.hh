/**
 * @file
 * A split-transaction snooping memory bus in the style of the PowerPC 6xx
 * bus used by RS/6000 S70-class servers.
 *
 * The bus is the seam between the host machine (which issues
 * transactions) and every snooping agent, including the MemorIES board.
 * Agents attach as BusSnooper devices; each transaction is broadcast to
 * all of them and their snoop responses are combined with 6xx priority
 * (Retry > Modified > Shared > None).
 *
 * Timing model: one address tenure occupies the address bus for one
 * cycle (the bus is pipelined and split-transaction). The issuing side
 * advances bus time explicitly with tick()/advanceTo(), so utilization
 * (tenures / elapsed cycles) is under the caller's control — the paper's
 * case studies run at 2-20% utilization.
 */

#ifndef MEMORIES_BUS_BUS6XX_HH
#define MEMORIES_BUS_BUS6XX_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "common/types.hh"
#include "telemetry/sampler.hh"
#include "trace/lifecycle.hh"

namespace memories::bus
{

/** Interface every bus agent implements to observe address tenures. */
class BusSnooper
{
  public:
    virtual ~BusSnooper() = default;

    /**
     * Observe one transaction and drive a snoop response.
     * Passive agents (like the MemorIES board in normal operation)
     * return SnoopResponse::None; they may return Retry only under
     * buffer overflow.
     */
    virtual SnoopResponse snoop(const BusTransaction &txn) = 0;

    /** Name for diagnostics. */
    virtual std::string snooperName() const = 0;
};

/**
 * Second-phase interface: sees each tenure together with its combined
 * snoop response (the 6xx response window). Passive monitors like the
 * MemorIES board use this to discard tenures that were retried and will
 * be replayed.
 */
class BusObserver
{
  public:
    virtual ~BusObserver() = default;

    /** Called once per tenure, after all snoop responses combined. */
    virtual void observeResult(const BusTransaction &txn,
                               SnoopResponse combined) = 0;
};

/** Aggregate statistics the bus itself maintains. */
struct BusStats
{
    std::uint64_t tenures = 0;        //!< address tenures issued
    std::uint64_t memoryOps = 0;      //!< cacheable-memory tenures
    std::uint64_t filteredOps = 0;    //!< I/O, interrupt, sync tenures
    std::uint64_t retries = 0;        //!< tenures answered with Retry
    std::uint64_t sharedResponses = 0;
    std::uint64_t modifiedResponses = 0;
    /** Data-bus beats consumed by data-bearing transfers. */
    std::uint64_t dataCycles = 0;

    /** Mean address-bus utilization over elapsed cycles. */
    double utilization(Cycle elapsed) const;

    /**
     * Mean data-bus utilization over elapsed cycles — the figure the
     * paper's "2% to 20%" measurements correspond to (a 128B transfer
     * occupies the data bus for several beats while the address bus is
     * busy one cycle).
     */
    double dataUtilization(Cycle elapsed) const;
};

/** The host machine's snooping memory bus. */
class Bus6xx
{
  public:
    Bus6xx() = default;

    /** Attach a snooping agent. The caller retains ownership. */
    void attach(BusSnooper *agent);

    /** Detach a previously attached agent (no-op if absent). */
    void detach(BusSnooper *agent);

    /** Attach a second-phase observer. The caller retains ownership. */
    void attachObserver(BusObserver *observer);

    /** Detach an observer (no-op if absent). */
    void detachObserver(BusObserver *observer);

    /**
     * Broadcast one transaction at the current bus cycle.
     *
     * The transaction's cycle field is stamped by the bus. Returns the
     * combined snoop response; on Retry the tenure still happened (and
     * counts toward utilization) but the requester must re-issue.
     */
    SnoopResponse issue(BusTransaction txn);

    /** Advance bus time by @p cycles idle cycles. */
    void tick(Cycle cycles)
    {
        now_ += cycles;
        if (sampler_)
            sampler_->advanceTo(now_);
    }

    /** Advance bus time to an absolute cycle (no-op if in the past). */
    void advanceTo(Cycle cycle);

    /** Current bus cycle. */
    Cycle now() const { return now_; }

    const BusStats &stats() const { return stats_; }

    /** Reset statistics (time keeps running). */
    void clearStats() { stats_ = BusStats{}; }

    /** Number of attached snoopers. */
    std::size_t snooperCount() const { return snoopers_.size(); }

    /**
     * Number of attached second-phase observers. Observers are the
     * bus's tap hook: they see every tenure with its combined response
     * but can never drive one, so attaching an observer (e.g. an
     * ExperimentFleet tap) cannot perturb the host stream.
     */
    std::size_t observerCount() const { return observers_.size(); }

    /**
     * Attach a telemetry sampler. The bus becomes the sampler's clock
     * (every tick/advance drives window closes on emulated bus time,
     * never wall clock) and registers its own counters — tenures,
     * memory ops, retries, data-bus cycles — plus a per-window
     * address-bus utilization histogram. The sampler must outlive the
     * bus or be detached first. Costs one null-check per tick when not
     * attached.
     */
    void attachSampler(telemetry::Sampler &sampler);

    /** Stop driving the sampler (registered sources stay registered). */
    void detachSampler() { sampler_ = nullptr; }

    /**
     * Attach a flight recorder. Every tenure then emits lifecycle
     * events — BusIssue, one SnoopReply per attached snooper, and the
     * Combine — tagged with the tenure's trace id, and a combined Retry
     * response raises a BusRetry anomaly. Costs one null-check per
     * issue when detached. The recorder must outlive the bus or be
     * detached first.
     */
    void attachFlightRecorder(trace::FlightRecorder &recorder)
    {
        recorder_ = &recorder;
    }

    /** Stop emitting lifecycle events. */
    void detachFlightRecorder() { recorder_ = nullptr; }

    /** Currently attached flight recorder (nullptr when detached). */
    trace::FlightRecorder *flightRecorder() const { return recorder_; }

  private:
    std::vector<BusSnooper *> snoopers_;
    std::vector<BusObserver *> observers_;
    Cycle now_ = 0;
    BusStats stats_;
    telemetry::Sampler *sampler_ = nullptr;
    /** Per-window address-bus utilization in percent (0-100+). */
    std::unique_ptr<telemetry::Histogram> utilizationHist_;
    trace::FlightRecorder *recorder_ = nullptr;
    /** Next trace id to stamp (ids are 1-based; 0 = never issued). */
    std::uint32_t nextTraceId_ = 1;
};

} // namespace memories::bus

#endif // MEMORIES_BUS_BUS6XX_HH
