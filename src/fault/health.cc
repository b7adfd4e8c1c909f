#include "fault/health.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"

namespace memories::fault
{

std::string_view
healthStateName(HealthState state)
{
    switch (state) {
      case HealthState::Healthy:     return "healthy";
      case HealthState::Degraded:    return "degraded";
      case HealthState::Quarantined: return "quarantined";
    }
    return "?";
}

void
HealthMonitor::moveTo(HealthState to)
{
    if (state_ == to)
        return;
    const HealthState from = state_;
    state_ = to;
    if (hook_)
        hook_(from, to);
}

void
HealthMonitor::onAdmit(std::size_t occupancy, std::size_t capacity)
{
    if (!policy_.enabled || state_ == HealthState::Quarantined)
        return;
    // A successful admit ends any retry storm.
    storms_ = 0;
    shedRemaining_ = 0;

    const bool pressured =
        occupancy * 100 >= capacity * policy_.degradeOccupancyPercent;
    if (state_ == HealthState::Healthy) {
        pressured_ = pressured ? pressured_ + 1 : 0;
        if (pressured_ >= policy_.degradeWindow) {
            pressured_ = 0;
            calm_ = 0;
            moveTo(HealthState::Degraded);
        }
    } else { // Degraded
        calm_ = pressured ? 0 : calm_ + 1;
        if (calm_ >= policy_.recoverWindow) {
            calm_ = 0;
            pressured_ = 0;
            moveTo(HealthState::Healthy);
        }
    }
}

OverflowAction
HealthMonitor::onOverflow()
{
    if (!policy_.enabled)
        return OverflowAction::Retry;
    if (state_ == HealthState::Quarantined)
        return OverflowAction::Shed;
    if (shedRemaining_ > 0) {
        --shedRemaining_;
        return OverflowAction::Shed;
    }
    ++storms_;
    // An overflow is conclusive pressure: degrade immediately rather
    // than waiting out the occupancy window.
    if (state_ == HealthState::Healthy) {
        pressured_ = 0;
        calm_ = 0;
        moveTo(HealthState::Degraded);
    }
    if (policy_.quarantineStorms != 0 &&
        storms_ >= policy_.quarantineStorms) {
        moveTo(HealthState::Quarantined);
        return OverflowAction::Shed;
    }
    shedRemaining_ = backoffUnits(storms_, policy_.backoffLimit);
    return OverflowAction::Retry;
}

void
HealthMonitor::resync()
{
    pressured_ = 0;
    calm_ = 0;
    storms_ = 0;
    shedRemaining_ = 0;
    moveTo(HealthState::Healthy);
}

void
HealthMonitor::saveState(ckpt::Sink &sink) const
{
    sink.u8(static_cast<std::uint8_t>(state_));
    sink.u32(pressured_);
    sink.u32(calm_);
    sink.u32(storms_);
    sink.u64(shedRemaining_);
}

void
HealthMonitor::loadState(ckpt::Source &source)
{
    const std::uint8_t ladder = source.u8();
    if (ladder > static_cast<std::uint8_t>(HealthState::Quarantined))
        fatal(source.context(), ": unknown health state ", unsigned{ladder});
    state_ = static_cast<HealthState>(ladder);
    pressured_ = source.u32();
    calm_ = source.u32();
    storms_ = source.u32();
    shedRemaining_ = source.u64();
}

std::string
HealthMonitor::describe() const
{
    std::ostringstream os;
    os << healthStateName(state_);
    if (!policy_.enabled)
        return os.str() + " (monitor disabled)";
    os << " (degrade at " << policy_.degradeOccupancyPercent
       << "% occupancy for " << policy_.degradeWindow
       << " tenures, sampling shift " << policy_.degradedSamplingShift
       << ", recover after " << policy_.recoverWindow
       << ", backoff limit 2^" << policy_.backoffLimit
       << ", quarantine after " << policy_.quarantineStorms
       << " storms)";
    return os.str();
}

} // namespace memories::fault
