#include "ies/eventring.hh"

#include <algorithm>

#include "common/logging.hh"

namespace memories::ies
{

EventRing::EventRing(std::size_t capacity, std::size_t consumers)
    : ring_(capacity), tails_(consumers, 0), stalls_(consumers, 0)
{
    if (capacity == 0)
        fatal("event ring needs at least one slot");
    if (consumers == 0)
        fatal("event ring needs at least one consumer");
}

std::size_t
EventRing::freeSpaceLocked() const
{
    const std::uint64_t min_tail =
        *std::min_element(tails_.begin(), tails_.end());
    return ring_.size() - static_cast<std::size_t>(head_ - min_tail);
}

void
EventRing::push(const bus::BusTransaction *events, std::size_t n)
{
    std::unique_lock lock(mu_);
    std::size_t done = 0;
    while (done < n) {
        if (freeSpaceLocked() == 0) {
            // Wall-clock backpressure, charged to the laggards. The
            // emulated host never sees it: bus time is virtual.
            const std::uint64_t min_tail =
                *std::min_element(tails_.begin(), tails_.end());
            for (std::size_t c = 0; c < tails_.size(); ++c) {
                if (tails_[c] == min_tail)
                    ++stalls_[c];
            }
            notFull_.wait(lock, [&] { return freeSpaceLocked() > 0; });
        }
        while (done < n && freeSpaceLocked() > 0) {
            ring_[head_ % ring_.size()] = events[done++];
            ++head_;
        }
        notEmpty_.notify_all();
    }
}

void
EventRing::close()
{
    {
        std::lock_guard lock(mu_);
        closed_ = true;
    }
    notEmpty_.notify_all();
}

std::size_t
EventRing::pop(std::size_t c, bus::BusTransaction *out, std::size_t max,
               bool *drained)
{
    std::unique_lock lock(mu_);
    std::size_t n = 0;
    while (n < max && tails_[c] < head_) {
        out[n++] = ring_[tails_[c] % ring_.size()];
        ++tails_[c];
    }
    if (drained)
        *drained = closed_ && tails_[c] == head_;
    if (n > 0)
        notFull_.notify_one(); // only the producer waits on notFull_
    return n;
}

bool
EventRing::drained(std::size_t c) const
{
    std::lock_guard lock(mu_);
    return closed_ && tails_[c] == head_;
}

void
EventRing::waitForEvents(const std::vector<std::size_t> &consumers)
{
    std::unique_lock lock(mu_);
    notEmpty_.wait(lock, [&] {
        if (closed_)
            return true;
        for (std::size_t c : consumers) {
            if (tails_[c] < head_)
                return true;
        }
        return false;
    });
}

std::uint64_t
EventRing::published() const
{
    std::lock_guard lock(mu_);
    return head_;
}

std::uint64_t
EventRing::stalls(std::size_t c) const
{
    std::lock_guard lock(mu_);
    return stalls_[c];
}

} // namespace memories::ies
