#include "bus/bus6xx.hh"

#include <algorithm>

namespace memories::bus
{

double
BusStats::utilization(Cycle elapsed) const
{
    return elapsed == 0 ? 0.0
                        : static_cast<double>(tenures) /
                              static_cast<double>(elapsed);
}

double
BusStats::dataUtilization(Cycle elapsed) const
{
    return elapsed == 0 ? 0.0
                        : static_cast<double>(dataCycles) /
                              static_cast<double>(elapsed);
}

namespace
{

/**
 * Width of the 6xx data bus in bytes per beat. A data-bearing tenure
 * holds the data bus for size/width beats (BusStats::dataCycles); the
 * address bus stays one cycle per tenure (split-transaction).
 */
constexpr unsigned dataBeatBytes = 16;

/** True for commands that move a full line of data on the data bus. */
bool
carriesData(BusOp op)
{
    switch (op) {
      case BusOp::Read:
      case BusOp::ReadIfetch:
      case BusOp::Rwitm:
      case BusOp::WriteBack:
      case BusOp::WriteKill:
        return true;
      default:
        return false;
    }
}

} // namespace

void
Bus6xx::attach(BusSnooper *agent)
{
    snoopers_.push_back(agent);
}

void
Bus6xx::detach(BusSnooper *agent)
{
    snoopers_.erase(std::remove(snoopers_.begin(), snoopers_.end(), agent),
                    snoopers_.end());
}

void
Bus6xx::attachObserver(BusObserver *observer)
{
    observers_.push_back(observer);
}

void
Bus6xx::detachObserver(BusObserver *observer)
{
    observers_.erase(
        std::remove(observers_.begin(), observers_.end(), observer),
        observers_.end());
}

void
Bus6xx::advanceTo(Cycle cycle)
{
    if (cycle > now_)
        now_ = cycle;
    if (sampler_)
        sampler_->advanceTo(now_);
}

void
Bus6xx::attachSampler(telemetry::Sampler &sampler)
{
    sampler_ = &sampler;
    sampler.addValue("bus.tenures", [this] { return stats_.tenures; });
    sampler.addValue("bus.memory_ops",
                     [this] { return stats_.memoryOps; });
    sampler.addValue("bus.retries", [this] { return stats_.retries; });
    sampler.addValue("bus.data_cycles",
                     [this] { return stats_.dataCycles; });
    sampler.addGauge("bus.utilization",
                     [this] { return stats_.utilization(now_); });

    // Distribution of per-window address-bus load: the live view behind
    // the paper's "2% to 20%" observation (section 3.3).
    if (!utilizationHist_) {
        utilizationHist_ = std::make_unique<telemetry::Histogram>(
            "bus.window_utilization_percent", 5, 20);
    }
    sampler.addHistogram(*utilizationHist_);
    sampler.addWindowCallback(
        [this, prev = stats_.tenures](
            const telemetry::WindowRecord &w) mutable {
            const Cycle span = w.endCycle - w.beginCycle;
            if (span == 0)
                return;
            const std::uint64_t cur = stats_.tenures;
            utilizationHist_->record((cur - prev) * 100 / span);
            prev = cur;
        });
}

SnoopResponse
Bus6xx::issue(BusTransaction txn)
{
    if (sampler_)
        sampler_->advanceTo(now_);
    txn.cycle = now_;
    txn.traceId = nextTraceId_++;
    ++now_; // the address tenure occupies one bus cycle
    ++stats_.tenures;
    if (isMemoryOp(txn.op))
        ++stats_.memoryOps;
    else
        ++stats_.filteredOps;

    if (recorder_) {
        trace::LifecycleEvent ev;
        ev.kind = trace::EventKind::BusIssue;
        ev.cycle = txn.cycle;
        ev.addr = txn.addr;
        ev.traceId = txn.traceId;
        ev.cpu = txn.cpu;
        ev.op = txn.op;
        ev.arg0 = txn.isRetryReplay ? 1 : 0;
        recorder_->record(ev);
    }

    SnoopResponse combined = SnoopResponse::None;
    std::uint8_t snooperIndex = 0;
    for (auto *agent : snoopers_) {
        const SnoopResponse resp = agent->snoop(txn);
        combined = combineSnoop(combined, resp);
        if (recorder_) {
            trace::LifecycleEvent ev;
            ev.kind = trace::EventKind::SnoopReply;
            ev.cycle = txn.cycle;
            ev.addr = txn.addr;
            ev.traceId = txn.traceId;
            ev.node = snooperIndex;
            ev.cpu = txn.cpu;
            ev.op = txn.op;
            ev.arg0 = static_cast<std::uint8_t>(resp);
            recorder_->record(ev);
        }
        ++snooperIndex;
    }

    switch (combined) {
      case SnoopResponse::Retry:
        ++stats_.retries;
        break;
      case SnoopResponse::Modified:
        ++stats_.modifiedResponses;
        break;
      case SnoopResponse::Shared:
        ++stats_.sharedResponses;
        break;
      case SnoopResponse::None:
        break;
    }

    // A retried tenure never reaches its data phase.
    if (combined != SnoopResponse::Retry && carriesData(txn.op)) {
        stats_.dataCycles +=
            (txn.size + dataBeatBytes - 1) / dataBeatBytes;
    }

    if (recorder_) {
        // The combined response is visible one cycle after the address
        // tenure (the 6xx response window).
        trace::LifecycleEvent ev;
        ev.kind = trace::EventKind::Combine;
        ev.cycle = txn.cycle + 1;
        ev.addr = txn.addr;
        ev.traceId = txn.traceId;
        ev.cpu = txn.cpu;
        ev.op = txn.op;
        ev.arg0 = static_cast<std::uint8_t>(combined);
        recorder_->record(ev);
        if (combined == SnoopResponse::Retry) {
            recorder_->notifyAnomaly(trace::AnomalyKind::BusRetry,
                                     txn.cycle + 1, txn.traceId);
        }
    }

    for (auto *observer : observers_)
        observer->observeResult(txn, combined);
    return combined;
}

} // namespace memories::bus
