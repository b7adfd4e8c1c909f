/**
 * @file
 * Bounded single-producer broadcast ring of bus tenures: the one queue
 * between a bus-time thread and the threads that emulate behind it.
 * ExperimentFleet's workers (one cursor per board) and a
 * MemoriesBoard's machine lanes (one cursor per lane) both read it.
 */

#ifndef MEMORIES_IES_EVENTRING_HH
#define MEMORIES_IES_EVENTRING_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "bus/transaction.hh"

namespace memories::ies
{

/**
 * Bounded single-producer broadcast ring with one cursor per consumer.
 *
 * Every consumer sees every event in publication order (this is a
 * broadcast, not a work queue); a slot is reclaimed once the slowest
 * cursor has passed it. The producer blocks while the ring is full and
 * charges each blocking episode to the consumers currently holding the
 * minimum cursor.
 */
class EventRing
{
  public:
    EventRing(std::size_t capacity, std::size_t consumers);

    /** Producer: append @p n events, blocking while the ring is full. */
    void push(const bus::BusTransaction *events, std::size_t n);

    /** Producer: no more events will arrive; wakes every consumer. */
    void close();

    /**
     * Consumer @p c: pop up to @p max events without blocking. When
     * @p drained is non-null it reports, under the same lock, whether
     * the ring is closed and @p c has now consumed everything.
     */
    std::size_t pop(std::size_t c, bus::BusTransaction *out,
                    std::size_t max, bool *drained = nullptr);

    /** True once the ring is closed and @p c has consumed everything. */
    bool drained(std::size_t c) const;

    /**
     * Block until one of @p consumers has unconsumed events or the ring
     * is closed.
     */
    void waitForEvents(const std::vector<std::size_t> &consumers);

    /** Events pushed so far. */
    std::uint64_t published() const;

    /** Producer blocking episodes charged to consumer @p c. */
    std::uint64_t stalls(std::size_t c) const;

  private:
    std::size_t freeSpaceLocked() const;

    mutable std::mutex mu_;
    std::condition_variable notFull_;  //!< producer waits here
    std::condition_variable notEmpty_; //!< consumers wait here
    std::vector<bus::BusTransaction> ring_;
    std::vector<std::uint64_t> tails_;  //!< absolute per-consumer cursors
    std::vector<std::uint64_t> stalls_; //!< blocking episodes per laggard
    std::uint64_t head_ = 0;            //!< absolute events pushed
    bool closed_ = false;
};

} // namespace memories::ies

#endif // MEMORIES_IES_EVENTRING_HH
