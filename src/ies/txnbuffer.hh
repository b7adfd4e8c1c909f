/**
 * @file
 * The board's transaction buffering and SDRAM pacing model.
 *
 * Paper section 3.3: the SDRAMs that implement the tag/state/LRU
 * directories sustain roughly 42% of the maximum 6xx bus bandwidth.
 * Transaction buffers (512 entries in the node-controller FPGAs) absorb
 * bursts above that rate; if they ever fill, the address filter posts a
 * retry on the bus — the only case in which MemorIES is not perfectly
 * passive (never observed in months of lab use at 2-20% utilization).
 *
 * The model: entries arrive stamped with their bus cycle; the SDRAM
 * side earns `throughputPercent` credits per 100 bus cycles and retires
 * one entry per 100 credits. Because all four node controllers run in
 * lock step (section 3.1), one buffer paces the whole board.
 */

#ifndef MEMORIES_IES_TXNBUFFER_HH
#define MEMORIES_IES_TXNBUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "bus/transaction.hh"
#include "checkpoint/codec.hh"
#include "common/types.hh"
#include "telemetry/histogram.hh"

namespace memories::ies
{

/** Bounded transaction FIFO with a rate-limited drain. */
class TransactionBuffer
{
  public:
    /**
     * @param entries            Capacity (board: 512).
     * @param throughput_percent Drain rate as % of bus bandwidth
     *                           (board: 42).
     */
    TransactionBuffer(std::size_t entries, unsigned throughput_percent);

    /**
     * Offer a transaction arriving at its stamped bus cycle.
     * @return false when the buffer is full (caller posts a bus retry).
     */
    bool push(const bus::BusTransaction &txn);

    /**
     * Earn drain credits up to bus cycle @p now and pop the next
     * retirable transaction, if any. Call repeatedly until it returns
     * nullopt to drain everything that is due.
     */
    std::optional<bus::BusTransaction> drain(Cycle now);

    /**
     * Batch drain: earn credits up to @p now once, then append every
     * retirable transaction to @p out in FIFO order. Byte-identical to
     * calling drain(now) until nullopt — the first drain call earns all
     * credits for the span, later same-cycle calls earn nothing.
     * @return the number of transactions appended.
     */
    std::size_t drainInto(Cycle now, std::vector<bus::BusTransaction> &out);

    /**
     * Pop everything regardless of credits (end-of-run flush: the host
     * has stopped issuing, so the SDRAM catches up in real time).
     */
    std::optional<bus::BusTransaction> drainUnpaced();

    std::size_t size() const { return count_; }
    std::size_t capacity() const { return capacity_; }
    bool empty() const { return count_ == 0; }

    /**
     * Fault hook (RetirementStall): the SDRAM side earns no drain
     * credits for bus cycles before @p until — the stalled span is
     * skipped, never paid back. Extends any stall already active.
     */
    void injectStall(Cycle until)
    {
        if (until > stallUntil_)
            stallUntil_ = until;
    }

    /**
     * Fault hook (SlotLoss): @p slots entries of capacity are lost
     * until bus cycle @p until (at least one slot always survives). A
     * new fault replaces any previous one.
     */
    void injectSlotLoss(std::size_t slots, Cycle until)
    {
        slotLossSlots_ = slots;
        slotLossUntil_ = until;
    }

    /**
     * Mutation-free admission walk: the length of the longest prefix
     * of @p txns, offered in order each at its own bus cycle, that
     * this buffer would accept without a rejection. Mirrors the
     * board's admission step by step on a private copy of the pacing
     * state: a record the address filter drops (bus::isFilteredOp)
     * never reaches the buffer; every other record earns credits up to
     * its cycle (creditsAt, as earn() does), retires what they cover,
     * and takes a slot if one is free under effectiveCapacity(). The
     * IESSERV service layer meters each paced feed line with this
     * (docs/SERVICE.md).
     */
    std::size_t admissiblePrefix(const bus::BusTransaction *txns,
                                 std::size_t count) const;

    /** Capacity minus any slot-loss fault active at bus cycle @p now. */
    std::size_t effectiveCapacity(Cycle now) const
    {
        if (now >= slotLossUntil_ || slotLossSlots_ == 0)
            return capacity_;
        const std::size_t lost =
            slotLossSlots_ < capacity_ ? slotLossSlots_ : capacity_ - 1;
        return capacity_ - lost;
    }

    /** Deepest occupancy seen (board diagnostic counter). */
    std::size_t highWater() const { return highWater_; }

    /** Pushes rejected because the buffer was full. */
    std::uint64_t rejected() const { return rejected_; }

    /** Entries retired by the SDRAM side (paced or unpaced). */
    std::uint64_t retired() const { return retired_; }

    /**
     * Telemetry hook: record occupancy after every accepted push into
     * @p occupancy, and snoop-to-commit residency (retire cycle minus
     * arrival cycle) of every paced retirement into @p latency. Either
     * may be null; the caller retains ownership. Costs one null check
     * per push/drain when detached. Unpaced end-of-run flushes skip the
     * latency histogram (the host has stopped, so bus time is frozen
     * and residency is no longer meaningful).
     */
    void setTelemetry(telemetry::Histogram *occupancy,
                      telemetry::Histogram *latency)
    {
        occupancyHist_ = occupancy;
        latencyHist_ = latency;
    }

    /**
     * StateCodec: append the full pacing state — in-flight entries in
     * FIFO order, earned credits, fault windows (stall / slot loss) and
     * the diagnostic counters — to @p sink. Telemetry histogram
     * attachments are runtime wiring, not state, and are not saved.
     */
    void saveState(ckpt::Sink &sink) const;

    /**
     * StateCodec: load a saveState() payload straight into this
     * buffer. fatal() on occupancy overflow, unknown bus ops, credits
     * beyond the earning cap or a high-water mark beyond capacity. A
     * throw can leave the buffer half-loaded, so a restore loads into
     * a staged copy (MemoriesBoard::loadState).
     */
    void loadState(ckpt::Source &source);

  private:
    /**
     * Credits banked at bus cycle @p now by a buffer holding @p bank
     * credits earned up to cycle @p last: @p bank plus what the span
     * (last, now] earns outside any stall window, capped at one
     * buffer's worth of retirements.
     */
    std::uint64_t creditsAt(std::uint64_t bank, Cycle last,
                            Cycle now) const;

    /** Earn drain credits for the span (lastEarnCycle_, now]. */
    void earn(Cycle now);

    /** Pop the head entry (caller has checked count_ and credits). */
    bus::BusTransaction popFront();

    std::size_t capacity_;
    unsigned throughputPercent_;
    /** Fixed-size ring of capacity_ entries; head_ indexes the oldest. */
    std::vector<bus::BusTransaction> ring_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    Cycle lastEarnCycle_ = 0;
    Cycle stallUntil_ = 0;         //!< injected retirement stall
    std::size_t slotLossSlots_ = 0; //!< injected capacity loss
    Cycle slotLossUntil_ = 0;
    std::uint64_t credits_ = 0; //!< hundredths of a retirement
    std::size_t highWater_ = 0;
    std::uint64_t rejected_ = 0;
    std::uint64_t retired_ = 0;
    telemetry::Histogram *occupancyHist_ = nullptr;
    telemetry::Histogram *latencyHist_ = nullptr;
};

} // namespace memories::ies

#endif // MEMORIES_IES_TXNBUFFER_HH
