#include "host/hostcache.hh"

#include "common/logging.hh"

namespace memories::host
{

using LS = protocol::LineState;

HostCacheHierarchy::HostCacheHierarchy(
    const cache::CacheConfig &l1,
    const std::optional<cache::CacheConfig> &l2, std::uint64_t seed)
    : l1_(l1, seed)
{
    l1.validate(cache::hostBounds());
    if (l2) {
        l2->validate(cache::hostBounds());
        if (l2->lineSize < l1.lineSize)
            fatal("L2 line size smaller than L1 line size breaks "
                  "inclusion");
        if (l2->sizeBytes < l1.sizeBytes)
            fatal("L2 smaller than L1 breaks inclusion");
        l2_.emplace(*l2, seed + 1);
    }
}

std::uint64_t
HostCacheHierarchy::busLineSize() const
{
    return busLevel().config().lineSize;
}

bool
HostCacheHierarchy::residentInL1(Addr addr) const
{
    return l1_.probe(addr).hit;
}

bool
HostCacheHierarchy::residentInL2(Addr addr) const
{
    return l2_ ? l2_->probe(addr).hit : false;
}

protocol::LineState
HostCacheHierarchy::busLevelState(Addr addr) const
{
    const auto hit = busLevel().probe(addr);
    return hit.hit ? fromRaw(hit.state) : LS::Invalid;
}

AccessResult
HostCacheHierarchy::access(Addr addr, bool write)
{
    ++stats_.refs;
    if (write)
        ++stats_.writes;
    else
        ++stats_.reads;

    AccessResult res;
    const auto l1_hit = l1_.lookup(addr);

    if (!write) {
        if (l1_hit.hit) {
            ++stats_.l1Hits;
            res.hit = true;
            return res;
        }
        if (l2_) {
            const auto l2_hit = l2_->lookup(addr);
            if (l2_hit.hit) {
                ++stats_.l2Hits;
                l1_.allocate(addr, l2_hit.state);
                res.hit = true;
                return res;
            }
        }
        res.need = BusNeed{bus::BusOp::Read, busLevel().lineAlign(addr)};
        return res;
    }

    // Store: needs ownership (M or E) at the bus-facing level.
    const auto outer_hit =
        l2_ ? l2_->lookup(addr) : l1_hit;
    if (outer_hit.hit) {
        const LS state = fromRaw(outer_hit.state);
        if (state == LS::Modified || state == LS::Exclusive) {
            busLevel().setState(addr, raw(LS::Modified));
            if (l2_) {
                if (l1_hit.hit)
                    l1_.setState(addr, raw(LS::Modified));
                else
                    l1_.allocate(addr, raw(LS::Modified));
            }
            if (l1_hit.hit)
                ++stats_.l1Hits;
            else
                ++stats_.l2Hits;
            res.hit = true;
            return res;
        }
        // Shared: upgrade without data.
        res.need = BusNeed{bus::BusOp::DClaim,
                           busLevel().lineAlign(addr)};
        return res;
    }

    res.need = BusNeed{bus::BusOp::Rwitm, busLevel().lineAlign(addr)};
    return res;
}

std::optional<Addr>
HostCacheHierarchy::completeFill(const BusNeed &need, bool write,
                                 bus::SnoopResponse response)
{
    if (need.op == bus::BusOp::DClaim) {
        ++stats_.l2Upgrades;
        busLevel().setState(need.lineAddr, raw(LS::Modified));
        if (l2_) {
            if (l1_.probe(need.lineAddr).hit)
                l1_.setState(need.lineAddr, raw(LS::Modified));
            else
                l1_.allocate(need.lineAddr, raw(LS::Modified));
        }
        return std::nullopt;
    }

    ++stats_.l2Misses;
    LS fill_state;
    if (write || need.op == bus::BusOp::Rwitm) {
        fill_state = LS::Modified;
    } else if (response == bus::SnoopResponse::None) {
        fill_state = LS::Exclusive;
    } else {
        fill_state = LS::Shared;
    }

    std::optional<Addr> victim_wb;
    const auto evicted = busLevel().allocate(need.lineAddr,
                                             raw(fill_state));
    if (evicted.valid) {
        if (fromRaw(evicted.state) == LS::Modified) {
            ++stats_.writebacks;
            victim_wb = evicted.lineAddr;
        }
        if (l2_) {
            // Inclusion: purge every L1 line inside the evicted L2 line.
            const std::uint64_t l1_line = l1_.config().lineSize;
            const std::uint64_t l2_line = l2_->config().lineSize;
            for (Addr a = evicted.lineAddr;
                 a < evicted.lineAddr + l2_line; a += l1_line) {
                l1_.invalidate(a);
            }
        }
    }
    if (l2_)
        l1_.allocate(need.lineAddr, raw(fill_state));
    return victim_wb;
}

bus::SnoopResponse
HostCacheHierarchy::snoop(const bus::BusTransaction &txn)
{
    if (!bus::isMemoryOp(txn.op))
        return bus::SnoopResponse::None;
    // A remote cast-out changes nothing here, hit or miss: no coherent
    // copy can exist if the line was truly modified remotely, and a
    // stale Shared copy simply stays (memory is being updated, our copy
    // matches it). So it skips the tag probe.
    if (txn.op == bus::BusOp::WriteBack)
        return bus::SnoopResponse::None;

    const auto hit = busLevel().probe(txn.addr);
    if (!hit.hit)
        return bus::SnoopResponse::None;

    const LS state = fromRaw(hit.state);
    const bool dirty = state == LS::Modified;

    auto invalidate_all_levels = [&] {
        const Addr line = busLevel().lineAlign(txn.addr);
        busLevel().invalidate(line);
        if (l2_) {
            const std::uint64_t l1_line = l1_.config().lineSize;
            const std::uint64_t l2_line = l2_->config().lineSize;
            for (Addr a = line; a < line + l2_line; a += l1_line)
                l1_.invalidate(a);
        }
        ++stats_.snoopInvalidations;
    };

    switch (txn.op) {
      case bus::BusOp::Read:
      case bus::BusOp::ReadIfetch:
        if (dirty) {
            busLevel().setState(txn.addr, raw(LS::Shared));
            if (l2_ && l1_.probe(txn.addr).hit)
                l1_.setState(txn.addr, raw(LS::Shared));
            ++stats_.snoopDowngrades;
            return bus::SnoopResponse::Modified;
        }
        if (state == LS::Exclusive) {
            busLevel().setState(txn.addr, raw(LS::Shared));
            if (l2_ && l1_.probe(txn.addr).hit)
                l1_.setState(txn.addr, raw(LS::Shared));
            ++stats_.snoopDowngrades;
        }
        return bus::SnoopResponse::Shared;

      case bus::BusOp::Rwitm:
      case bus::BusOp::DClaim:
        invalidate_all_levels();
        return dirty ? bus::SnoopResponse::Modified
                     : bus::SnoopResponse::Shared;

      case bus::BusOp::WriteKill:
      case bus::BusOp::Kill:
      case bus::BusOp::Flush:
        invalidate_all_levels();
        return dirty ? bus::SnoopResponse::Modified
                     : bus::SnoopResponse::None;

      case bus::BusOp::Clean:
        if (dirty) {
            busLevel().setState(txn.addr, raw(LS::Shared));
            if (l2_ && l1_.probe(txn.addr).hit)
                l1_.setState(txn.addr, raw(LS::Shared));
            ++stats_.snoopDowngrades;
            return bus::SnoopResponse::Modified;
        }
        return bus::SnoopResponse::None;

      default:
        return bus::SnoopResponse::None;
    }
}

} // namespace memories::host
