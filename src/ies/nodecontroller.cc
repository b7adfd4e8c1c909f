#include "ies/nodecontroller.hh"

#include "common/bitops.hh"
#include "common/logging.hh"

namespace memories::ies
{

using protocol::LineState;

namespace
{

/** Directory geometry after set sampling: 1/2^shift of the sets. */
cache::CacheConfig
sampledGeometry(const cache::CacheConfig &cache, unsigned shift)
{
    cache::CacheConfig reduced = cache;
    reduced.sizeBytes >>= shift;
    return reduced;
}

} // namespace

NodeController::NodeController(NodeId id, const NodeConfig &config,
                               std::uint64_t seed)
    : id_(id), config_(config),
      directory_(sampledGeometry(config.cache, config.setSamplingShift),
                 seed + id * 7919),
      protocol_(config.protocol)
{
    lineShift_ = log2i(config.cache.lineSize);
    sampleMask_ = lowMask(config.setSamplingShift);
    // CPU-range errors are caught up front (with every other problem)
    // by BoardConfig::validationErrors, which the MemoriesBoard
    // constructor runs once; ids are masked here so a directly-built
    // controller with an unvalidated config cannot shift out of the
    // mask's range.
    for (CpuId cpu : config.cpus) {
        if (cpu < maxHostCpus)
            cpuMask_ |= std::uint64_t{1} << cpu;
    }

    const std::string prefix =
        "node" + std::to_string(id) + ".";
    for (std::size_t op = 0; op < bus::numBusOps; ++op) {
        const std::string opname{
            bus::busOpName(static_cast<bus::BusOp>(op))};
        hLocalHit_[op] = counters_.add(prefix + "local." + opname +
                                       ".hit");
        hLocalMiss_[op] = counters_.add(prefix + "local." + opname +
                                        ".miss");
        hRemoteSeen_[op] = counters_.add(prefix + "remote." + opname +
                                         ".seen");
    }
    hSatCache_ = counters_.add(prefix + "satisfied.cache");
    hSatModInt_ = counters_.add(prefix + "satisfied.modified_intervention");
    hSatShrInt_ = counters_.add(prefix + "satisfied.shared_intervention");
    hSatMem_ = counters_.add(prefix + "satisfied.memory");
    hFills_ = counters_.add(prefix + "directory.fills");
    hEvClean_ = counters_.add(prefix + "directory.evictions.clean");
    hEvDirty_ = counters_.add(prefix + "directory.evictions.dirty");
    hRemoteInv_ = counters_.add(prefix + "remote.invalidations");
    hRemoteDowngrade_ = counters_.add(prefix + "remote.downgrades");
    hSupplyMod_ = counters_.add(prefix + "supplied.modified");
    hSupplyShr_ = counters_.add(prefix + "supplied.shared");
    hLocalRefs_ = counters_.add(prefix + "local.refs");
    hRemoteRefs_ = counters_.add(prefix + "remote.refs");
    hUnsampled_ = counters_.add(prefix + "unsampled.refs");
    hParityCorrupted_ = counters_.add(prefix + "parity.corrupted");
    hParityScrubs_ = counters_.add(prefix + "parity.scrubs");
}

bool
NodeController::corruptLine(Addr addr, unsigned bit)
{
    (void)bit; // any single-bit flip is equally detectable by parity
    if (!inSample(addr))
        return false;
    const Addr sampled = sampleAddr(addr);
    if (!directory_.probe(sampled).hit)
        return false;
    for (Addr existing : corrupted_) {
        if (existing == sampled)
            return true; // already corrupt; parity cannot stack flips
    }
    corrupted_.push_back(sampled);
    counters_.bump(hParityCorrupted_);
    return true;
}

void
NodeController::scrubIfCorrupt(Addr sampled,
                               const bus::BusTransaction &txn)
{
    for (auto it = corrupted_.begin(); it != corrupted_.end(); ++it) {
        if (*it != sampled)
            continue;
        corrupted_.erase(it);
        // The line may have been legitimately invalidated or evicted
        // since the flip landed; only a still-valid entry needs the
        // scrub.
        if (directory_.probe(sampled).hit) {
            directory_.invalidate(sampled);
            counters_.bump(hParityScrubs_);
            if (recorder_)
                recorder_->record(
                    makeEvent(trace::EventKind::ParityScrub, txn));
        }
        return;
    }
}

std::uint64_t
NodeController::geometrySignature() const
{
    // Mix the geometry into one word; any mismatch must change it.
    std::uint64_t sig = 0xcbf29ce484222325ull;
    auto mix = [&sig](std::uint64_t v) {
        sig = (sig ^ v) * 0x100000001b3ull;
    };
    mix(config_.cache.sizeBytes);
    mix(config_.cache.assoc);
    mix(config_.cache.lineSize);
    mix(static_cast<std::uint64_t>(config_.cache.policy));
    mix(config_.setSamplingShift);
    return sig;
}

bool
NodeController::inSample(Addr addr) const
{
    return ((addr >> lineShift_) & sampleMask_) == 0;
}

Addr
NodeController::sampleAddr(Addr addr) const
{
    // Sampled lines have zero low set-index bits; dropping them keeps
    // the mapping injective while compacting the index space onto the
    // reduced directory.
    if (config_.setSamplingShift == 0)
        return addr;
    const Addr line = addr >> lineShift_;
    return (line >> config_.setSamplingShift) << lineShift_;
}

protocol::LineState
NodeController::probeState(Addr addr) const
{
    if (!inSample(addr))
        return LineState::Invalid;
    const auto hit = directory_.probe(sampleAddr(addr));
    return hit.hit ? static_cast<LineState>(hit.state)
                   : LineState::Invalid;
}

void
NodeController::processLocal(const bus::BusTransaction &raw_txn,
                             bus::SnoopResponse emu_resp)
{
    if (!inSample(raw_txn.addr)) {
        counters_.bump(hUnsampled_);
        return;
    }
    bus::BusTransaction txn = raw_txn;
    txn.addr = sampleAddr(raw_txn.addr);
    if (!corrupted_.empty())
        scrubIfCorrupt(txn.addr, raw_txn);

    const auto opidx = static_cast<std::size_t>(txn.op);
    const auto hit = directory_.lookup(txn.addr);
    const auto state = hit.hit ? static_cast<LineState>(hit.state)
                               : LineState::Invalid;

    if (bus::isReferenceOp(txn.op))
        counters_.bump(hLocalRefs_);

    if (hit.hit) {
        counters_.bump(hLocalHit_[opidx]);
    } else {
        counters_.bump(hLocalMiss_[opidx]);
    }
    if (recorder_) {
        auto ev = makeEvent(hit.hit ? trace::EventKind::CacheHit
                                    : trace::EventKind::CacheMiss,
                            raw_txn);
        ev.arg0 = static_cast<std::uint8_t>(state);
        recorder_->record(ev);
    }

    // Service-point classification for data-bearing requests: a hit is
    // served by this shared cache; a miss is served by whichever other
    // emulated node intervened, else by memory (Figure 12).
    if (bus::isReadOp(txn.op)) {
        if (hit.hit) {
            counters_.bump(hSatCache_);
        } else {
            switch (emu_resp) {
              case bus::SnoopResponse::Modified:
                counters_.bump(hSatModInt_);
                break;
              case bus::SnoopResponse::Shared:
                counters_.bump(hSatShrInt_);
                break;
              default:
                counters_.bump(hSatMem_);
                break;
            }
        }
    }

    const auto &entry =
        protocol_.requester(txn.op, state, protocol::summarize(emu_resp));

    if (hit.hit) {
        if (entry.next == LineState::Invalid) {
            directory_.invalidateAt(txn.addr, hit.way);
        } else if (entry.next != state) {
            directory_.setStateAt(
                txn.addr, hit.way,
                static_cast<cache::LineStateRaw>(entry.next));
        }
        if (recorder_ && entry.next != state) {
            auto ev = makeEvent(trace::EventKind::StateTransition,
                                raw_txn);
            ev.arg0 = static_cast<std::uint8_t>(state);
            ev.arg1 = static_cast<std::uint8_t>(entry.next);
            recorder_->record(ev);
        }
        return;
    }

    if (entry.allocate && entry.next != LineState::Invalid) {
        counters_.bump(hFills_);
        const auto evicted = directory_.allocate(
            txn.addr, static_cast<cache::LineStateRaw>(entry.next));
        if (recorder_) {
            auto ev = makeEvent(trace::EventKind::StateTransition,
                                raw_txn);
            ev.arg0 = static_cast<std::uint8_t>(LineState::Invalid);
            ev.arg1 = static_cast<std::uint8_t>(entry.next);
            recorder_->record(ev);
        }
        if (evicted.valid) {
            const auto ev_state = static_cast<LineState>(evicted.state);
            if (protocol::isDirtyState(ev_state))
                counters_.bump(hEvDirty_);
            else
                counters_.bump(hEvClean_);
            if (recorder_) {
                auto ev = makeEvent(trace::EventKind::Castout, raw_txn);
                ev.addr = evicted.lineAddr;
                ev.arg0 = static_cast<std::uint8_t>(ev_state);
                recorder_->record(ev);
            }
            // Passive limitation (paper 3.4): the board cannot
            // invalidate the line in the real L1/L2 below, so nothing
            // propagates from here - the directory just forgets it.
        }
    }
}

bus::SnoopResponse
NodeController::snoopRemote(const bus::BusTransaction &raw_txn)
{
    if (!inSample(raw_txn.addr)) {
        counters_.bump(hUnsampled_);
        return bus::SnoopResponse::None;
    }
    bus::BusTransaction txn = raw_txn;
    txn.addr = sampleAddr(raw_txn.addr);
    if (!corrupted_.empty())
        scrubIfCorrupt(txn.addr, raw_txn);

    const auto opidx = static_cast<std::size_t>(txn.op);
    counters_.bump(hRemoteSeen_[opidx]);
    counters_.bump(hRemoteRefs_);

    const auto hit = directory_.probe(txn.addr);
    if (!hit.hit)
        return bus::SnoopResponse::None;

    const auto state = static_cast<LineState>(hit.state);
    const auto &entry = protocol_.snooper(txn.op, state);

    if (entry.next == LineState::Invalid) {
        directory_.invalidateAt(txn.addr, hit.way);
        counters_.bump(hRemoteInv_);
    } else if (entry.next != state) {
        directory_.setStateAt(
            txn.addr, hit.way,
            static_cast<cache::LineStateRaw>(entry.next));
        counters_.bump(hRemoteDowngrade_);
    }
    if (recorder_ && entry.next != state) {
        auto ev = makeEvent(trace::EventKind::StateTransition, raw_txn);
        ev.arg0 = static_cast<std::uint8_t>(state);
        ev.arg1 = static_cast<std::uint8_t>(entry.next);
        recorder_->record(ev);
    }

    if (entry.response == bus::SnoopResponse::Modified)
        counters_.bump(hSupplyMod_);
    else if (entry.response == bus::SnoopResponse::Shared)
        counters_.bump(hSupplyShr_);
    return entry.response;
}

NodeStats
NodeController::stats() const
{
    NodeStats s;
    s.localRefs = counters_.value(hLocalRefs_);
    for (std::size_t i = 0; i < bus::numBusOps; ++i) {
        if (!bus::isReferenceOp(static_cast<bus::BusOp>(i)))
            continue;
        s.localHits += counters_.value(hLocalHit_[i]);
        s.localMisses += counters_.value(hLocalMiss_[i]);
    }
    s.satisfiedByCache = counters_.value(hSatCache_);
    s.satisfiedByModIntervention = counters_.value(hSatModInt_);
    s.satisfiedByShrIntervention = counters_.value(hSatShrInt_);
    s.satisfiedByMemory = counters_.value(hSatMem_);
    s.fills = counters_.value(hFills_);
    s.evictionsClean = counters_.value(hEvClean_);
    s.evictionsDirty = counters_.value(hEvDirty_);
    s.remoteInvalidations = counters_.value(hRemoteInv_);
    s.suppliedModified = counters_.value(hSupplyMod_);
    s.suppliedShared = counters_.value(hSupplyShr_);
    return s;
}

void
NodeController::saveState(ckpt::Sink &sink) const
{
    sink.u64(geometrySignature());
    counters_.saveState(sink);
    sink.u64(corrupted_.size());
    for (Addr addr : corrupted_)
        sink.u64(addr);
    directory_.saveState(sink);
}

void
NodeController::loadState(ckpt::Source &source)
{
    const std::uint64_t sig = source.u64();
    if (sig != geometrySignature()) {
        fatal(source.context(),
              ": cache geometry mismatch (checkpointed node has a "
              "different size/assoc/line/policy/sampling)");
    }
    counters_.loadState(source);
    const std::uint64_t corruptCount = source.u64();
    if (corruptCount > directory_.config().numSets() * config_.cache.assoc) {
        fatal(source.context(), ": ", corruptCount,
              " pending parity scrubs exceed the directory size");
    }
    corrupted_.clear();
    for (std::uint64_t i = 0; i < corruptCount; ++i)
        corrupted_.push_back(source.u64());
    directory_.loadState(source);
}

} // namespace memories::ies
