#include "fault/faultplan.hh"

#include <sstream>

#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace memories::fault
{

std::string_view
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::SpuriousRetry:    return "retry";
      case FaultKind::DropReply:        return "dropreply";
      case FaultKind::DelayReply:       return "delayreply";
      case FaultKind::AddressFlip:      return "addrflip";
      case FaultKind::TagFlip:          return "tagflip";
      case FaultKind::SlotLoss:         return "slotloss";
      case FaultKind::RetirementStall:  return "stall";
      case FaultKind::NumKinds:         break;
    }
    return "?";
}

namespace
{

bool
kindFromName(std::string_view name, FaultKind &out)
{
    for (std::size_t k = 0; k < numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (faultKindName(kind) == name) {
            out = kind;
            return true;
        }
    }
    return false;
}

double
parseProb(const std::string &token, const std::string &line)
{
    double v = 0.0;
    std::size_t used = 0;
    try {
        v = std::stod(token, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != token.size() || v < 0.0 || v > 1.0)
        fatal("fault plan: probability '", token, "' in '", line,
              "' must be in [0, 1]");
    return v;
}

FaultSpec
parseLine(const std::string &line)
{
    std::istringstream is(line);
    std::string kind_name;
    is >> kind_name;

    FaultSpec spec;
    if (!kindFromName(kind_name, spec.kind))
        fatal("fault plan: unknown fault kind '", kind_name, "' in '",
              line, "'");

    bool has_trigger = false;
    std::string key;
    while (is >> key) {
        std::string value;
        if (!(is >> value))
            fatal("fault plan: key '", key, "' missing a value in '",
                  line, "'");
        const auto integer = [&](std::uint64_t max = UINT64_MAX) {
            return parseUnsigned(value, "fault plan '" + line + "' " + key,
                                 max);
        };
        if (key == "at") {
            spec.atTenure = integer();
            if (spec.atTenure == 0)
                fatal("fault plan: 'at' is 1-based; got 0 in '", line,
                      "'");
            has_trigger = true;
        } else if (key == "prob") {
            spec.probability = parseProb(value, line);
            has_trigger = true;
        } else if (key == "bit") {
            spec.bit = static_cast<unsigned>(integer(63));
        } else if (key == "cycles") {
            spec.cycles = integer();
        } else if (key == "slots") {
            spec.slots = integer();
        } else if (key == "node") {
            spec.node = static_cast<std::uint8_t>(integer(0xff));
        } else {
            fatal("fault plan: unknown key '", key, "' in '", line, "'");
        }
    }
    if (!has_trigger)
        fatal("fault plan: '", line,
              "' needs a trigger ('at N' or 'prob P')");
    if (spec.atTenure != 0 && spec.probability != 0.0)
        fatal("fault plan: '", line,
              "' may use 'at' or 'prob', not both");

    switch (spec.kind) {
      case FaultKind::DelayReply:
      case FaultKind::RetirementStall:
        if (spec.cycles == 0)
            fatal("fault plan: ", faultKindName(spec.kind),
                  " needs 'cycles N' in '", line, "'");
        break;
      case FaultKind::SlotLoss:
        if (spec.slots == 0 || spec.cycles == 0)
            fatal("fault plan: slotloss needs 'slots N' and 'cycles N' "
                  "in '", line, "'");
        break;
      default:
        break;
    }
    return spec;
}

} // namespace

std::string
FaultSpec::describe() const
{
    std::ostringstream os;
    os << faultKindName(kind);
    if (atTenure != 0)
        os << " at " << atTenure;
    else
        os << " prob " << probability;
    switch (kind) {
      case FaultKind::AddressFlip:
        os << " bit " << bit;
        break;
      case FaultKind::TagFlip:
        os << " node " << static_cast<unsigned>(node) << " bit " << bit;
        break;
      case FaultKind::DelayReply:
      case FaultKind::RetirementStall:
        os << " cycles " << cycles;
        break;
      case FaultKind::SlotLoss:
        os << " slots " << slots << " cycles " << cycles;
        break;
      default:
        break;
    }
    return os.str();
}

FaultPlan
FaultPlan::parse(std::string_view text)
{
    FaultPlan plan;
    std::istringstream is{std::string(text)};
    std::string line;
    while (std::getline(is, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        // Skip blank (or comment-only) lines.
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        plan.faults.push_back(parseLine(line));
    }
    return plan;
}

FaultPlan
FaultPlan::load(const std::string &path)
{
    const std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(path, "fault plan");
    return parse(std::string(bytes.begin(), bytes.end()));
}

std::string
FaultPlan::describe() const
{
    std::ostringstream os;
    for (const FaultSpec &spec : faults)
        os << spec.describe() << "\n";
    return os.str();
}

} // namespace memories::fault
