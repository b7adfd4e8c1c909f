#include "protocol/table.hh"

#include <sstream>
#include <vector>

#include "checkpoint/io.hh"
#include "common/logging.hh"

namespace memories::protocol
{

namespace
{

constexpr const char *
summaryName(SnoopSummary s)
{
    switch (s) {
      case SnoopSummary::None:     return "none";
      case SnoopSummary::Shared:   return "shared";
      case SnoopSummary::Modified: return "modified";
      case SnoopSummary::NumSummaries: break;
    }
    return "?";
}

SnoopSummary
summaryFromName(std::string_view name)
{
    if (name == "none")     return SnoopSummary::None;
    if (name == "shared")   return SnoopSummary::Shared;
    if (name == "modified") return SnoopSummary::Modified;
    fatal("unknown snoop summary '", std::string(name), "'");
}

bus::SnoopResponse
responseFromName(std::string_view name)
{
    if (name == "none")     return bus::SnoopResponse::None;
    if (name == "shared")   return bus::SnoopResponse::Shared;
    if (name == "modified") return bus::SnoopResponse::Modified;
    fatal("unknown snoop response '", std::string(name), "'");
}

} // namespace

ProtocolTable::ProtocolTable()
{
    // Identity default: every op leaves every state alone and answers
    // None. Explicit protocol definitions override what they need.
    for (std::size_t op = 0; op < bus::numBusOps; ++op) {
        for (std::size_t s = 0; s < numLineStates; ++s) {
            auto state = static_cast<LineState>(s);
            snooper_[index2(static_cast<bus::BusOp>(op), state)] =
                SnooperEntry{state, bus::SnoopResponse::None};
            for (std::size_t r = 0; r < numSnoopSummaries; ++r) {
                requester_[index3(static_cast<bus::BusOp>(op), state,
                                  static_cast<SnoopSummary>(r))] =
                    RequesterEntry{state, false};
            }
        }
    }
}

void
ProtocolTable::setRequester(bus::BusOp op, LineState current,
                            SnoopSummary snoop, RequesterEntry entry)
{
    requester_[index3(op, current, snoop)] = entry;
}

void
ProtocolTable::setSnooper(bus::BusOp op, LineState current,
                          SnooperEntry entry)
{
    snooper_[index2(op, current)] = entry;
}

void
ProtocolTable::validate() const
{
    for (std::size_t op = 0; op < bus::numBusOps; ++op) {
        auto bop = static_cast<bus::BusOp>(op);
        for (std::size_t s = 0; s < numLineStates; ++s) {
            auto state = static_cast<LineState>(s);
            if (state == LineState::NumStates)
                continue;
            const auto &sn = snooper(bop, state);
            if (state == LineState::Invalid) {
                if (sn.next != LineState::Invalid ||
                    sn.response != bus::SnoopResponse::None) {
                    fatal("protocol '", name_, "': snooper entry for (",
                          bus::busOpName(bop),
                          ", I) must stay Invalid and answer none");
                }
            }
            for (std::size_t r = 0; r < numSnoopSummaries; ++r) {
                const auto &rq = requester(bop, state,
                                           static_cast<SnoopSummary>(r));
                if (rq.allocate && rq.next == LineState::Invalid) {
                    fatal("protocol '", name_, "': requester entry (",
                          bus::busOpName(bop), ", ", lineStateName(state),
                          ", ", summaryName(static_cast<SnoopSummary>(r)),
                          ") allocates into Invalid");
                }
            }
        }
    }
}

std::string
ProtocolTable::toMapText() const
{
    std::ostringstream os;
    os << "protocol " << name_ << "\n";
    for (std::size_t op = 0; op < bus::numBusOps; ++op) {
        auto bop = static_cast<bus::BusOp>(op);
        if (!bus::isMemoryOp(bop))
            continue;
        for (std::size_t s = 0; s < numLineStates; ++s) {
            auto state = static_cast<LineState>(s);
            for (std::size_t r = 0; r < numSnoopSummaries; ++r) {
                auto snoop = static_cast<SnoopSummary>(r);
                const auto &rq = requester(bop, state, snoop);
                os << "requester " << bus::busOpName(bop) << ' '
                   << lineStateName(state) << ' ' << summaryName(snoop)
                   << " -> " << lineStateName(rq.next)
                   << (rq.allocate ? " alloc" : "") << "\n";
            }
        }
        for (std::size_t s = 0; s < numLineStates; ++s) {
            auto state = static_cast<LineState>(s);
            const auto &sn = snooper(bop, state);
            os << "snooper " << bus::busOpName(bop) << ' '
               << lineStateName(state) << " -> "
               << lineStateName(sn.next) << ' '
               << snoopResponseName(sn.response) << "\n";
        }
    }
    return os.str();
}

namespace
{

/** Apply an entry over possibly-wildcard state/snoop fields. */
template <typename Fn>
void
forStates(std::string_view token, Fn &&fn)
{
    if (token == "*") {
        for (std::size_t s = 0; s < numLineStates; ++s)
            fn(static_cast<LineState>(s));
    } else {
        fn(lineStateFromName(token));
    }
}

template <typename Fn>
void
forSummaries(std::string_view token, Fn &&fn)
{
    if (token == "*") {
        for (std::size_t r = 0; r < numSnoopSummaries; ++r)
            fn(static_cast<SnoopSummary>(r));
    } else {
        fn(summaryFromName(token));
    }
}

std::vector<std::string>
tokenize(std::string_view line)
{
    std::vector<std::string> tokens;
    std::istringstream is{std::string(line)};
    std::string tok;
    while (is >> tok) {
        if (tok[0] == '#')
            break;
        tokens.push_back(tok);
    }
    return tokens;
}

} // namespace

ProtocolTable
parseMapText(std::string_view text)
{
    ProtocolTable table;
    std::istringstream is{std::string(text)};
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        auto tokens = tokenize(line);
        if (tokens.empty())
            continue;

        const std::string &kind = tokens[0];
        if (kind == "protocol") {
            if (tokens.size() != 2)
                fatal("map line ", lineno, ": 'protocol' takes one name");
            table.setName(tokens[1]);
        } else if (kind == "requester") {
            // requester OP STATE SNOOP -> STATE [alloc]
            if (tokens.size() < 6 || tokens[4] != "->")
                fatal("map line ", lineno,
                      ": expected 'requester OP STATE SNOOP -> STATE "
                      "[alloc]'");
            auto op = bus::busOpFromName(tokens[1]);
            LineState next = lineStateFromName(tokens[5]);
            bool alloc = tokens.size() > 6 && tokens[6] == "alloc";
            if (tokens.size() > 6 && tokens[6] != "alloc")
                fatal("map line ", lineno, ": unknown flag '", tokens[6],
                      "'");
            forStates(tokens[2], [&](LineState cur) {
                forSummaries(tokens[3], [&](SnoopSummary snoop) {
                    table.setRequester(op, cur, snoop,
                                       RequesterEntry{next, alloc});
                });
            });
        } else if (kind == "snooper") {
            // snooper OP STATE -> STATE RESPONSE
            if (tokens.size() != 6 || tokens[3] != "->")
                fatal("map line ", lineno,
                      ": expected 'snooper OP STATE -> STATE RESPONSE'");
            auto op = bus::busOpFromName(tokens[1]);
            LineState next = lineStateFromName(tokens[4]);
            auto resp = responseFromName(tokens[5]);
            forStates(tokens[2], [&](LineState cur) {
                table.setSnooper(op, cur, SnooperEntry{next, resp});
            });
        } else {
            fatal("map line ", lineno, ": unknown directive '", kind, "'");
        }
    }
    table.validate();
    return table;
}

ProtocolTable
loadMapFile(const std::string &path)
{
    const std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(path, "protocol map file");
    return parseMapText(std::string(bytes.begin(), bytes.end()));
}

} // namespace memories::protocol
