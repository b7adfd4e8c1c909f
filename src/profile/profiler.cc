#include "profile/profiler.hh"

#include <algorithm>
#include <cstdio>
#include <iomanip>
#include <iterator>
#include <sstream>

#include "telemetry/sampler.hh"

namespace memories::profile
{

const char *
stageName(Stage stage)
{
    switch (stage) {
      case Stage::FeedBatch:      return "feed_batch";
      case Stage::BatchAdmission: return "batch_admission";
      case Stage::Emulation:      return "emulation";
      case Stage::NumStages:      break;
    }
    return "?";
}

Stage
stageParent(Stage)
{
    return Stage::FeedBatch;
}

void
Profiler::reset()
{
    for (StageStats &c : stageCells_)
        c = StageStats{};
}

ProfReport
Profiler::snapshot() const
{
    ProfReport report;
    report.stages.assign(std::begin(stageCells_), std::end(stageCells_));
    report.batches = stageCells_[static_cast<std::size_t>(Stage::FeedBatch)]
                         .calls;
    return report;
}

namespace
{

std::string
fmtNs(std::uint64_t ns)
{
    char buf[32];
    if (ns >= 1'000'000'000)
        std::snprintf(buf, sizeof(buf), "%.3f s", ns / 1e9);
    else if (ns >= 1'000'000)
        std::snprintf(buf, sizeof(buf), "%.3f ms", ns / 1e6);
    else if (ns >= 1'000)
        std::snprintf(buf, sizeof(buf), "%.3f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%llu ns",
                      static_cast<unsigned long long>(ns));
    return buf;
}

} // namespace

std::string
Profiler::describe() const
{
    const ProfReport r = snapshot();
    const double total = static_cast<double>(
        std::max<std::uint64_t>(r.stage(Stage::FeedBatch).ns, 1));
    std::ostringstream os;
    os << "IESPROF: " << r.batches << " batches\n";
    os << "  stage               calls            time    share\n";
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        const StageStats &st = r.stages[i];
        if (st.calls == 0)
            continue;
        const std::string label =
            (s == Stage::FeedBatch ? "" : "  ") + std::string(stageName(s));
        os << "  " << std::left << std::setw(20) << label << std::right
           << std::setw(8) << st.calls << std::setw(16) << fmtNs(st.ns)
           << std::setw(8) << std::fixed << std::setprecision(1)
           << 100.0 * static_cast<double>(st.ns) / total << "%\n";
    }
    return os.str();
}

std::string
Profiler::json(std::uint64_t refs) const
{
    const ProfReport r = snapshot();
    std::ostringstream os;
    os << "{\"refs\":" << refs << ",\"batches\":" << r.batches
       << ",\"stages\":[";
    const char *sep = "";
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        const StageStats &st = r.stages[i];
        if (st.calls == 0 && st.ns == 0)
            continue;
        char per_ref[32];
        std::snprintf(per_ref, sizeof(per_ref), "%.3f",
                      refs > 0 ? static_cast<double>(st.ns) /
                                     static_cast<double>(refs)
                               : 0.0);
        os << sep << "{\"stage\":\"" << stageName(s) << "\",\"parent\":\""
           << stageName(stageParent(s)) << "\",\"calls\":" << st.calls
           << ",\"ns\":" << st.ns << ",\"ns_per_ref\":" << per_ref << "}";
        sep = ",";
    }
    os << "]}";
    return os.str();
}

void
Profiler::attachTelemetry(telemetry::Sampler &sampler,
                          const std::string &prefix)
{
    for (std::size_t i = 0; i < numStages; ++i) {
        const StageStats *cell = &stageCells_[i];
        const std::string base =
            prefix + ".stage." + stageName(static_cast<Stage>(i));
        sampler.addValue(base + ".ns", [cell] { return cell->ns; });
        sampler.addValue(base + ".calls", [cell] { return cell->calls; });
    }
}

} // namespace memories::profile
