#include "fault/injector.hh"

#include <array>
#include <sstream>
#include <utility>

#include "bus/busop.hh"
#include "common/logging.hh"

namespace memories::fault
{

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed), rng_(seed)
{
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        hKind_[k] = counters_.add(
            "faults." +
            std::string(faultKindName(static_cast<FaultKind>(k))));
    }
}

bool
FaultInjector::fires(const FaultSpec &spec, std::uint64_t index)
{
    if (spec.atTenure != 0)
        return index == spec.atTenure;
    return rng_.nextBool(spec.probability);
}

void
FaultInjector::note(const FaultSpec &spec,
                    const bus::BusTransaction &txn)
{
    counters_.bump(hKind_[static_cast<std::size_t>(spec.kind)]);
    if (!recorder_)
        return;
    trace::LifecycleEvent ev;
    ev.kind = trace::EventKind::FaultInjected;
    ev.cycle = txn.cycle;
    ev.addr = txn.addr;
    ev.traceId = txn.traceId;
    ev.board = boardId_;
    ev.cpu = txn.cpu;
    ev.op = txn.op;
    ev.arg0 = static_cast<std::uint8_t>(spec.kind);
    recorder_->record(ev);
    recorder_->notifyAnomaly(trace::AnomalyKind::FaultInjection,
                             txn.cycle, txn.traceId);
}

bus::SnoopResponse
FaultInjector::snoop(const bus::BusTransaction &txn)
{
    if (bus::isFilteredOp(txn.op) || txn.isRetryReplay)
        return bus::SnoopResponse::None;
    ++busTenures_;
    auto response = bus::SnoopResponse::None;
    for (const FaultSpec &spec : plan_.faults) {
        if (spec.kind != FaultKind::SpuriousRetry)
            continue;
        if (fires(spec, busTenures_)) {
            note(spec, txn);
            response = bus::SnoopResponse::Retry;
        }
    }
    return response;
}

FaultInjector::StreamFaults
FaultInjector::onTenure(bus::BusTransaction &txn)
{
    ++streamTenures_;
    StreamFaults out;
    for (const FaultSpec &spec : plan_.faults) {
        switch (spec.kind) {
          case FaultKind::DropReply:
            if (fires(spec, streamTenures_)) {
                note(spec, txn);
                out.drop = true;
            }
            break;
          case FaultKind::DelayReply:
            if (fires(spec, streamTenures_)) {
                note(spec, txn);
                txn.cycle += spec.cycles;
            }
            break;
          case FaultKind::AddressFlip:
            if (fires(spec, streamTenures_)) {
                note(spec, txn);
                txn.addr ^= Addr{1} << spec.bit;
            }
            break;
          default:
            break;
        }
    }
    return out;
}

FaultInjector::CommitFaults
FaultInjector::onCommit(const bus::BusTransaction &txn)
{
    ++commits_;
    CommitFaults out;
    for (const FaultSpec &spec : plan_.faults) {
        switch (spec.kind) {
          case FaultKind::TagFlip:
            if (fires(spec, commits_)) {
                note(spec, txn);
                out.tagFlip = true;
                out.tagNode = spec.node;
                out.tagBit = spec.bit;
            }
            break;
          case FaultKind::SlotLoss:
            if (fires(spec, commits_)) {
                note(spec, txn);
                out.slotLoss = true;
                out.slots = spec.slots;
                out.slotsUntil = txn.cycle + spec.cycles;
            }
            break;
          case FaultKind::RetirementStall:
            if (fires(spec, commits_)) {
                note(spec, txn);
                out.stall = true;
                out.stallUntil = txn.cycle + spec.cycles;
            }
            break;
          default:
            break;
        }
    }
    return out;
}

namespace
{

/** FNV-1a over the plan's canonical text rendering. */
std::uint64_t
planHash(const FaultPlan &plan)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : plan.describe()) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

} // namespace

void
FaultInjector::saveState(ckpt::Sink &sink) const
{
    sink.u64(seed_);
    sink.u64(planHash(plan_));
    for (std::uint64_t w : rng_.state())
        sink.u64(w);
    sink.u64(busTenures_);
    sink.u64(streamTenures_);
    sink.u64(commits_);
    counters_.saveState(sink);
}

void
FaultInjector::loadState(ckpt::Source &source)
{
    const std::uint64_t seed = source.u64();
    if (seed != seed_) {
        fatal(source.context(), ": checkpoint was taken with injector seed ",
              seed, " but this injector uses ", seed_);
    }
    const std::uint64_t hash = source.u64();
    if (hash != planHash(plan_)) {
        fatal(source.context(),
              ": checkpointed fault plan differs from the attached plan — "
              "the fault schedule would not resume deterministically");
    }
    std::array<std::uint64_t, 4> rng{};
    std::uint64_t ored = 0;
    for (std::uint64_t &w : rng) {
        w = source.u64();
        ored |= w;
    }
    if (ored == 0) {
        fatal(source.context(),
              ": injector RNG stream is the invalid all-zero state");
    }
    rng_.setState(rng);
    busTenures_ = source.u64();
    streamTenures_ = source.u64();
    commits_ = source.u64();
    counters_.loadState(source);
}

std::uint64_t
FaultInjector::totalInjected() const
{
    std::uint64_t total = 0;
    for (std::size_t k = 0; k < numFaultKinds; ++k)
        total += counters_.value(hKind_[k]);
    return total;
}

std::string
FaultInjector::dumpStats() const
{
    std::ostringstream os;
    os << "fault injector: seed " << seed_ << ", " << plan_.size()
       << " spec" << (plan_.size() == 1 ? "" : "s") << ", "
       << totalInjected() << " injected\n";
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        const auto count = counters_.value(hKind_[k]);
        if (count == 0)
            continue;
        os << "  " << faultKindName(static_cast<FaultKind>(k)) << " "
           << count << "\n";
    }
    return os.str();
}

} // namespace memories::fault
