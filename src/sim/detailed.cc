#include "sim/detailed.hh"

#include "common/bitops.hh"
#include "common/logging.hh"
#include "protocol/state.hh"
#include "trace/tracefile.hh"

namespace memories::sim
{

DetailedCacheSimulator::DetailedCacheSimulator(
    const DetailedParams &params, std::uint64_t seed)
    : params_(params), tags_(params.cache, seed),
      bankFreeAt_(params.sdramBanks, 0),
      latencyHist_("detailed.latency_cycles", 8, 32),
      reuseHist_("detailed.reuse_distance_log2", 1, 32),
      reuseRing_(1024, invalidAddr)
{
    params.cache.validate(cache::hostBounds());
    if (params.sdramBanks == 0)
        fatal("detailed simulator needs at least one SDRAM bank");
    if (params.reuseSamplePeriod == 0)
        fatal("reuse sample period must be nonzero");
}

void
DetailedCacheSimulator::advanceTo(Cycle cycle)
{
    if (cycle > now_)
        now_ = cycle;
}

void
DetailedCacheSimulator::recordReuse(Addr line_addr)
{
    // Sampled backward-search reuse distance over a bounded window:
    // the kind of bookkeeping detailed simulators carry per access.
    if (++reuseCounter_ % params_.reuseSamplePeriod == 0) {
        std::uint64_t distance = reuseRing_.size();
        for (std::size_t i = 0; i < reuseRing_.size(); ++i) {
            const std::size_t idx =
                (reuseRingPos_ + reuseRing_.size() - 1 - i) %
                reuseRing_.size();
            if (reuseRing_[idx] == line_addr) {
                distance = i;
                break;
            }
        }
        reuseHist_.record(distance == reuseRing_.size()
                              ? 31
                              : log2i(distance + 1));
    }
    reuseRing_[reuseRingPos_] = line_addr;
    reuseRingPos_ = (reuseRingPos_ + 1) % reuseRing_.size();
}

void
DetailedCacheSimulator::process(const bus::BusTransaction &txn)
{
    if (!bus::isMemoryOp(txn.op))
        return;

    advanceTo(txn.cycle);
    ++accesses_;

    const Addr line = tags_.lineAlign(txn.addr);
    recordReuse(line);

    const auto hit = tags_.lookup(line);
    Cycle t = now_ + params_.directoryLookupCycles;

    // SDRAM bank arbitration: pick the line's bank, queue behind it.
    const std::size_t bank =
        (line >> log2i(params_.cache.lineSize)) % bankFreeAt_.size();
    if (bankFreeAt_[bank] > t)
        t = bankFreeAt_[bank];
    bankBusySum_ += bankFreeAt_[bank] > now_
                        ? bankFreeAt_[bank] - now_
                        : 0;
    t += params_.sdramServiceCycles;
    bankFreeAt_[bank] = t;

    // Cache-management ops never allocate; they purge or clean.
    const bool management = txn.op == bus::BusOp::Flush ||
                            txn.op == bus::BusOp::Kill ||
                            txn.op == bus::BusOp::Clean;

    bool miss = !hit.hit;
    if (miss) {
        ++misses_;
        t += params_.memoryLatencyCycles;
        if (!management) {
            const bool write_intent = bus::isWriteIntentOp(txn.op) ||
                                      txn.op == bus::BusOp::WriteBack;
            const auto evicted = tags_.allocate(
                line, static_cast<cache::LineStateRaw>(
                          write_intent ? protocol::LineState::Modified
                                       : protocol::LineState::Shared));
            if (evicted.valid)
                ++evictions_;
        }
    } else {
        ++hits_;
        if (txn.op == bus::BusOp::Flush || txn.op == bus::BusOp::Kill) {
            tags_.invalidate(line);
        } else if (txn.op == bus::BusOp::Clean) {
            tags_.setState(line,
                           static_cast<cache::LineStateRaw>(
                               protocol::LineState::Shared));
        } else if (bus::isWriteIntentOp(txn.op)) {
            tags_.setState(line,
                           static_cast<cache::LineStateRaw>(
                               protocol::LineState::Modified));
        }
    }

    events_.push(Event{t, EventKind::Complete, line, miss, now_});

    // Retire everything due by this access's completion horizon.
    while (!events_.empty() && events_.top().when <= now_) {
        const Event ev = events_.top();
        events_.pop();
        latencyHist_.record(ev.when - ev.issued);
    }
}

std::uint64_t
DetailedCacheSimulator::runTrace(const std::string &path)
{
    const trace::BusTrace trace = trace::readBusTrace(path);
    for (const bus::BusTransaction &txn : trace.stream)
        process(txn);
    finish();
    return trace.stream.size();
}

void
DetailedCacheSimulator::finish()
{
    while (!events_.empty()) {
        const Event ev = events_.top();
        events_.pop();
        latencyHist_.record(ev.when - ev.issued);
    }
}

DetailedStats
DetailedCacheSimulator::stats() const
{
    DetailedStats s;
    s.accesses = accesses_;
    s.hits = hits_;
    s.misses = misses_;
    s.evictions = evictions_;
    s.meanLatencyCycles = latencyHist_.mean();
    s.meanBankOccupancy =
        accesses_ == 0 ? 0.0
                       : static_cast<double>(bankBusySum_) /
                             static_cast<double>(accesses_);
    return s;
}

} // namespace memories::sim
