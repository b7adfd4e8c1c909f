#include "trace/lifecycle.hh"

#include <algorithm>
#include <sstream>

#include "bus/busop.hh"
#include "common/logging.hh"
#include "protocol/state.hh"

namespace memories::trace
{

std::string_view
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::BusIssue:        return "issue";
      case EventKind::SnoopReply:      return "snoop";
      case EventKind::Combine:         return "combine";
      case EventKind::BoardCommit:     return "commit";
      case EventKind::BoardDropRetry:  return "drop-retry";
      case EventKind::Retire:          return "retire";
      case EventKind::CacheHit:        return "hit";
      case EventKind::CacheMiss:       return "miss";
      case EventKind::Castout:         return "castout";
      case EventKind::StateTransition: return "transition";
      case EventKind::BufferOverflow:  return "overflow";
      case EventKind::Mark:            return "mark";
      case EventKind::Anomaly:         return "anomaly";
      case EventKind::FaultInjected:   return "fault";
      case EventKind::ParityScrub:     return "parity-scrub";
      case EventKind::HealthTransition: return "health";
      case EventKind::NumKinds:        break;
    }
    return "?";
}

std::string_view
anomalyKindName(AnomalyKind kind)
{
    switch (kind) {
      case AnomalyKind::TxnBufferOverflow: return "txnbuffer-overflow";
      case AnomalyKind::FleetDrop:         return "fleet-drop";
      case AnomalyKind::BusRetry:          return "bus-retry";
      case AnomalyKind::Manual:            return "manual";
      case AnomalyKind::FaultInjection:    return "fault-injection";
      case AnomalyKind::HealthDegraded:    return "health-degraded";
      case AnomalyKind::BoardQuarantined:  return "board-quarantined";
    }
    return "?";
}

std::string_view
healthStateLabel(std::uint8_t state)
{
    switch (state) {
      case 0: return "healthy";
      case 1: return "degraded";
      case 2: return "quarantined";
      default: return "?";
    }
}

std::string
LifecycleEvent::describe() const
{
    std::ostringstream os;
    os << seq << " @" << cycle << " " << eventKindName(kind);
    if (traceId != 0)
        os << " txn#" << traceId;
    if (board != lifecycleNoOwner)
        os << " board" << static_cast<unsigned>(board);
    if (node != lifecycleNoOwner)
        os << " node" << static_cast<unsigned>(node);
    switch (kind) {
      case EventKind::BusIssue:
        os << " " << bus::busOpName(op) << " cpu"
           << static_cast<unsigned>(cpu) << " 0x" << std::hex << addr
           << std::dec;
        break;
      case EventKind::SnoopReply:
      case EventKind::Combine:
        os << " "
           << bus::snoopResponseName(
                  static_cast<bus::SnoopResponse>(arg0));
        break;
      case EventKind::StateTransition:
        os << " "
           << protocol::lineStateName(
                  static_cast<protocol::LineState>(arg0))
           << "->"
           << protocol::lineStateName(
                  static_cast<protocol::LineState>(arg1))
           << " 0x" << std::hex << addr << std::dec;
        break;
      case EventKind::CacheHit:
      case EventKind::Castout:
        os << " state="
           << protocol::lineStateName(
                  static_cast<protocol::LineState>(arg0))
           << " 0x" << std::hex << addr << std::dec;
        break;
      case EventKind::CacheMiss:
      case EventKind::BoardCommit:
      case EventKind::BoardDropRetry:
      case EventKind::Retire:
        os << " 0x" << std::hex << addr << std::dec;
        break;
      case EventKind::BufferOverflow:
        os << (arg0 ? " dropped" : " retried");
        break;
      case EventKind::Anomaly:
        os << " " << anomalyKindName(static_cast<AnomalyKind>(arg0));
        break;
      case EventKind::FaultInjected:
        os << " kind#" << static_cast<unsigned>(arg0) << " 0x"
           << std::hex << addr << std::dec;
        break;
      case EventKind::ParityScrub:
        os << " 0x" << std::hex << addr << std::dec;
        break;
      case EventKind::HealthTransition:
        os << " " << healthStateLabel(arg0) << "->"
           << healthStateLabel(arg1);
        break;
      default:
        break;
    }
    return os.str();
}

FlightRecorder::FlightRecorder(std::size_t capacity)
{
    if (capacity > maxCapacity)
        fatal("flight recorder of ", capacity, " events exceeds the ",
              maxCapacity, "-event maximum");
    std::size_t cap = 16;
    while (cap < capacity)
        cap <<= 1;
    ring_.resize(cap);
    mask_ = cap - 1;
}

void
FlightRecorder::mark(const std::string &label, Cycle cycle)
{
    if (label.size() > maxMarkLabelBytes)
        fatal("mark label of ", label.size(), " bytes exceeds the ",
              maxMarkLabelBytes, "-byte maximum");
    if (markLabels_.size() < maxMarkLabels)
        markLabels_.push_back(label);
    else
        markLabels_[marks_ % maxMarkLabels] = label;
    LifecycleEvent ev;
    ev.kind = EventKind::Mark;
    ev.cycle = cycle;
    ev.addr = marks_++;
    record(ev);
}

const std::string &
FlightRecorder::markLabel(std::size_t index) const
{
    static const std::string unknown = "?";
    if (index >= marks_ || marks_ - index > maxMarkLabels)
        return unknown;
    return markLabels_[index % maxMarkLabels];
}

std::uint64_t
FlightRecorder::size() const
{
    return std::min<std::uint64_t>(next_, mask_ + 1);
}

std::vector<LifecycleEvent>
FlightRecorder::snapshot() const
{
    const std::uint64_t n = size();
    std::vector<LifecycleEvent> out;
    out.reserve(n);
    for (std::uint64_t seq = next_ - n; seq < next_; ++seq)
        out.push_back(ring_[seq & mask_]);
    return out;
}

std::size_t
firstDivergence(const std::vector<LifecycleEvent> &a,
                const std::vector<LifecycleEvent> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    const std::uint64_t baseA = a.empty() ? 0 : a.front().seq;
    const std::uint64_t baseB = b.empty() ? 0 : b.front().seq;
    for (std::size_t i = 0; i < n; ++i) {
        LifecycleEvent ea = a[i];
        LifecycleEvent eb = b[i];
        ea.seq -= baseA;
        eb.seq -= baseB;
        ea.board = lifecycleNoOwner;
        eb.board = lifecycleNoOwner;
        if (!(ea == eb))
            return i;
    }
    if (a.size() != b.size())
        return n;
    return SIZE_MAX;
}

} // namespace memories::trace
