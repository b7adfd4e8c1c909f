#include "campaign/faultshim.hh"

#include <cstdlib>

#include "common/logging.hh"
#include "common/units.hh"

namespace memories::campaign
{

std::vector<ScriptedFault>
parseFaultSpec(const std::string &spec)
{
    std::vector<ScriptedFault> script;
    std::size_t begin = 0;
    while (begin <= spec.size()) {
        std::size_t end = spec.find(',', begin);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(begin, end - begin);
        begin = end + 1;
        if (entry.empty())
            continue;
        const std::size_t at_op = entry.find('@');
        if (at_op == std::string::npos)
            fatal("fault spec entry '", entry, "' has no '@op'");
        const std::string kind = entry.substr(0, at_op);
        std::string op = entry.substr(at_op + 1);
        std::uint64_t at = 0;
        const std::size_t colon = op.find(':');
        if (colon != std::string::npos) {
            at = parseUnsigned(std::string_view(op).substr(colon + 1),
                               "fault spec '" + spec + "' offset");
            op = op.substr(0, colon);
        }
        ScriptedFault f;
        f.op = parseUnsigned(op, "fault spec '" + spec + "' op");
        f.fault.at = static_cast<std::size_t>(at);
        if (kind == "shortwrite")
            f.fault.kind = ckpt::DiskFaultKind::ShortWrite;
        else if (kind == "enospc")
            f.fault.kind = ckpt::DiskFaultKind::NoSpace;
        else if (kind == "tornrename")
            f.fault.kind = ckpt::DiskFaultKind::TornRename;
        else if (kind == "bitflip")
            f.fault.kind = ckpt::DiskFaultKind::BitFlip;
        else if (kind == "crash")
            f.crash = true;
        else
            fatal("unknown fault kind '", kind, "' in spec '", spec,
                  "'");
        script.push_back(f);
    }
    return script;
}

ckpt::DiskFault
ScriptedDiskFaults::onAtomicWrite(const std::string &)
{
    const std::uint64_t op = ops_++;
    for (const ScriptedFault &f : script_) {
        if (f.op != op)
            continue;
        ++injected_;
        if (f.crash) {
            // kill -9 semantics: no destructors, no stream flushes —
            // whatever was durable stays, everything else vanishes.
            std::_Exit(137);
        }
        return f.fault;
    }
    return ckpt::DiskFault{};
}

} // namespace memories::campaign
