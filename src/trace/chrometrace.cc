#include "trace/chrometrace.hh"

#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "bus/busop.hh"
#include "checkpoint/io.hh"
#include "protocol/state.hh"

namespace memories::trace
{

namespace
{

/** Bus events render under pid 0; board b renders under pid 1+b. */
constexpr unsigned busPid = 0;

unsigned
pidOf(const LifecycleEvent &ev)
{
    return ev.board == lifecycleNoOwner ? busPid : 1u + ev.board;
}

unsigned
tidOf(const LifecycleEvent &ev)
{
    if (ev.board == lifecycleNoOwner)
        return ev.cpu;
    return ev.node == lifecycleNoOwner ? 0u : ev.node;
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
hexAddr(Addr addr)
{
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

/** Emits one event object per line, comma-separating as it goes. */
class EventSink
{
  public:
    explicit EventSink(std::ostream &os) : os_(os) {}

    void emit(const std::string &body)
    {
        if (any_)
            os_ << ",\n";
        os_ << body;
        any_ = true;
    }

  private:
    std::ostream &os_;
    bool any_ = false;
};

std::string
metadataEvent(unsigned pid, long long tid, const char *what,
              const std::string &name)
{
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
       << ",\"name\":\"" << what << "\",\"args\":{\"name\":\""
       << jsonEscape(name) << "\"}}";
    return os.str();
}

std::string
spanEvent(const LifecycleEvent &ev, std::string_view name, Cycle dur,
          const std::string &extraArgs)
{
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"pid\":" << pidOf(ev) << ",\"tid\":"
       << tidOf(ev) << ",\"ts\":" << ev.cycle << ",\"dur\":" << dur
       << ",\"name\":\"" << jsonEscape(name) << "\",\"args\":{\"txn\":"
       << ev.traceId << ",\"addr\":\"" << hexAddr(ev.addr) << "\""
       << extraArgs << "}}";
    return os.str();
}

std::string
instantEvent(const LifecycleEvent &ev, std::string_view name,
             char scope, const std::string &extraArgs)
{
    std::ostringstream os;
    os << "{\"ph\":\"i\",\"pid\":" << pidOf(ev) << ",\"tid\":"
       << tidOf(ev) << ",\"ts\":" << ev.cycle << ",\"s\":\"" << scope
       << "\",\"name\":\"" << jsonEscape(name) << "\",\"args\":{\"txn\":"
       << ev.traceId << extraArgs << "}}";
    return os.str();
}

} // namespace

void
writeChromeTrace(const std::vector<LifecycleEvent> &events,
                 std::ostream &os, const FlightRecorder *labels)
{
    // Pass 1: index span-closing events and collect the track set.
    //   - combined response cycle + value per traceId (bus span end)
    //   - retirement cycle per (board, traceId)   (residency span end)
    //   - per-snooper replies folded into the issue span's args
    std::map<std::uint32_t, const LifecycleEvent *> combines;
    std::map<std::pair<unsigned, std::uint32_t>, Cycle> retires;
    std::map<std::uint32_t, std::string> snoopArgs;
    std::set<unsigned> pids;
    std::set<std::pair<unsigned, unsigned>> tids;
    for (const LifecycleEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::Combine:
            combines.emplace(ev.traceId, &ev);
            break;
          case EventKind::Retire:
            retires[{pidOf(ev), ev.traceId}] = ev.cycle;
            break;
          case EventKind::SnoopReply: {
            std::ostringstream arg;
            arg << ",\"snoop" << static_cast<unsigned>(ev.node)
                << "\":\""
                << bus::snoopResponseName(
                       static_cast<bus::SnoopResponse>(ev.arg0))
                << "\"";
            snoopArgs[ev.traceId] += arg.str();
            break;
          }
          default:
            break;
        }
        pids.insert(pidOf(ev));
        tids.insert({pidOf(ev), tidOf(ev)});
    }

    os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
    EventSink sink(os);

    // Metadata first, in ascending pid/tid order.
    for (unsigned pid : pids) {
        sink.emit(metadataEvent(
            pid, -1, "process_name",
            pid == busPid ? "host bus"
                          : "board " + std::to_string(pid - 1)));
        sink.emit(metadataEvent(pid, -1, "process_sort_index",
                                std::to_string(pid)));
    }
    for (const auto &[pid, tid] : tids) {
        sink.emit(metadataEvent(
            pid, tid, "thread_name",
            pid == busPid ? "cpu " + std::to_string(tid)
                          : "node " + std::to_string(tid)));
    }

    // Then every event in recorder order.
    for (const LifecycleEvent &ev : events) {
        switch (ev.kind) {
          case EventKind::BusIssue: {
            Cycle dur = 1;
            std::string extra;
            if (auto it = combines.find(ev.traceId);
                it != combines.end()) {
                const LifecycleEvent &comb = *it->second;
                if (comb.cycle > ev.cycle)
                    dur = comb.cycle - ev.cycle;
                extra += std::string(",\"combined\":\"") +
                         std::string(bus::snoopResponseName(
                             static_cast<bus::SnoopResponse>(
                                 comb.arg0))) +
                         "\"";
            }
            if (auto it = snoopArgs.find(ev.traceId);
                it != snoopArgs.end())
                extra += it->second;
            extra += std::string(",\"cpu\":") +
                     std::to_string(static_cast<unsigned>(ev.cpu));
            sink.emit(spanEvent(ev, bus::busOpName(ev.op), dur, extra));
            break;
          }
          case EventKind::BoardCommit: {
            Cycle dur = 1;
            if (auto it = retires.find({pidOf(ev), ev.traceId});
                it != retires.end() && it->second > ev.cycle)
                dur = it->second - ev.cycle;
            sink.emit(spanEvent(ev,
                                std::string("buffered ") +
                                    std::string(bus::busOpName(ev.op)),
                                dur, ""));
            break;
          }
          case EventKind::BoardDropRetry:
            sink.emit(instantEvent(ev, "drop-retry", 't', ""));
            break;
          case EventKind::CacheHit:
            sink.emit(instantEvent(
                ev,
                std::string("hit ") +
                    std::string(protocol::lineStateName(
                        static_cast<protocol::LineState>(ev.arg0))),
                't', ",\"addr\":\"" + hexAddr(ev.addr) + "\""));
            break;
          case EventKind::CacheMiss:
            sink.emit(instantEvent(ev, "miss", 't',
                                   ",\"addr\":\"" + hexAddr(ev.addr) +
                                       "\""));
            break;
          case EventKind::Castout:
            sink.emit(instantEvent(
                ev,
                std::string("castout ") +
                    std::string(protocol::lineStateName(
                        static_cast<protocol::LineState>(ev.arg0))),
                't', ",\"victim\":\"" + hexAddr(ev.addr) + "\""));
            break;
          case EventKind::StateTransition:
            sink.emit(instantEvent(
                ev,
                std::string(protocol::lineStateName(
                    static_cast<protocol::LineState>(ev.arg0))) +
                    "->" +
                    std::string(protocol::lineStateName(
                        static_cast<protocol::LineState>(ev.arg1))),
                't', ",\"addr\":\"" + hexAddr(ev.addr) + "\""));
            break;
          case EventKind::BufferOverflow:
            sink.emit(instantEvent(
                ev, ev.arg0 ? "overflow (dropped)" : "overflow (retry)",
                'p', ""));
            break;
          case EventKind::Mark:
            sink.emit(instantEvent(
                ev,
                labels ? labels->markLabel(static_cast<std::size_t>(
                             ev.addr))
                       : "mark " + std::to_string(ev.addr),
                'g', ""));
            break;
          case EventKind::Anomaly:
            sink.emit(instantEvent(
                ev,
                std::string("anomaly: ") +
                    std::string(anomalyKindName(
                        static_cast<AnomalyKind>(ev.arg0))),
                'g', ""));
            break;
          case EventKind::FaultInjected:
            sink.emit(instantEvent(
                ev,
                "fault #" + std::to_string(
                                static_cast<unsigned>(ev.arg0)),
                'p', ",\"addr\":\"" + hexAddr(ev.addr) + "\""));
            break;
          case EventKind::ParityScrub:
            sink.emit(instantEvent(ev, "parity scrub", 't',
                                   ",\"addr\":\"" + hexAddr(ev.addr) +
                                       "\""));
            break;
          case EventKind::HealthTransition:
            sink.emit(instantEvent(
                ev,
                std::string("health ") +
                    std::string(healthStateLabel(ev.arg0)) + "->" +
                    std::string(healthStateLabel(ev.arg1)),
                'p', ""));
            break;
          case EventKind::SnoopReply:
          case EventKind::Combine:
          case EventKind::Retire:
            break; // folded into their tenure's spans
          case EventKind::NumKinds:
            break;
        }
    }

    os << "\n]}\n";
}

void
writeChromeTraceFile(const std::vector<LifecycleEvent> &events,
                     const std::string &path,
                     const FlightRecorder *labels)
{
    const std::string json = chromeTraceToString(events, labels);
    ckpt::atomicWriteFile(path, json.data(), json.size());
}

std::string
chromeTraceToString(const std::vector<LifecycleEvent> &events,
                    const FlightRecorder *labels)
{
    std::ostringstream os;
    writeChromeTrace(events, os, labels);
    return os.str();
}

} // namespace memories::trace
