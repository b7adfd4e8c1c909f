#include "profile/profexport.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "trace/chrometrace.hh"

namespace memories::profile
{

namespace
{

std::string
fixed(double v, int places)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", places, v);
    return buf;
}

/** Root-to-frame folded path ("feed_batch;batch_admission;..."). */
std::string
stackPath(Stage s)
{
    std::string path = stageName(s);
    while (s != Stage::FeedBatch) {
        s = stageParent(s);
        path = std::string(stageName(s)) + ";" + path;
    }
    return path;
}

std::uint64_t
childrenNs(const ProfReport &report, Stage parent)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        if (s != parent && stageParent(s) == parent)
            sum += report.stage(s).ns;
    }
    return sum;
}

std::string
profMetadataEvent(long long tid, const char *what,
                  const std::string &name)
{
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":" << profilerPid << ",\"tid\":" << tid
       << ",\"name\":\"" << what << "\",\"args\":{\"name\":\"" << name
       << "\"}}";
    return os.str();
}

std::string
profSpanEvent(const ProfSpan &span)
{
    const auto tid = static_cast<unsigned>(span.stage);
    const Cycle dur =
        span.endCycle > span.beginCycle
            ? span.endCycle - span.beginCycle
            : Cycle{1};
    std::ostringstream os;
    os << "{\"ph\":\"X\",\"pid\":" << profilerPid << ",\"tid\":" << tid
       << ",\"ts\":" << span.beginCycle << ",\"dur\":" << dur
       << ",\"name\":\"" << stageName(span.stage)
       << "\",\"args\":{\"wall_ns\":" << span.wallNs
       << ",\"batch\":" << span.batch << "}}";
    return os.str();
}

} // namespace

std::string
foldedStacks(const Profiler &profiler)
{
    const ProfReport report = profiler.snapshot();
    std::ostringstream os;
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        const std::uint64_t ns = report.stage(s).ns;
        if (ns == 0)
            continue;
        const std::uint64_t children = childrenNs(report, s);
        const std::uint64_t self = ns > children ? ns - children : 0;
        if (self > 0)
            os << stackPath(s) << " " << self << "\n";
    }
    return os.str();
}

void
writeFoldedFile(const Profiler &profiler, const std::string &path)
{
    const std::string folded = foldedStacks(profiler);
    ckpt::atomicWriteFile(path, folded.data(), folded.size());
}

std::string
mergedChromeTrace(const std::vector<trace::LifecycleEvent> &events,
                  const Profiler &profiler,
                  const trace::FlightRecorder *labels)
{
    std::string base = trace::chromeTraceToString(events, labels);

    // The plain export always ends with exactly "\n]}\n"; splice the
    // profiler track in before it so the emulated bytes are untouched
    // and the merged output is a strict prefix extension.
    static const std::string suffix = "\n]}\n";
    if (base.size() < suffix.size() ||
        base.compare(base.size() - suffix.size(), suffix.size(),
                     suffix) != 0)
        fatal("chrome trace export did not end with the expected ",
              "closing bracket");
    std::string out =
        base.substr(0, base.size() - suffix.size());

    const std::vector<ProfSpan> spans = profiler.spans();
    std::ostringstream os;
    bool any = !events.empty();
    auto emit = [&](const std::string &body) {
        if (any)
            os << ",\n";
        os << body;
        any = true;
    };

    emit(profMetadataEvent(-1, "process_name", "IESPROF (emulator)"));
    emit(profMetadataEvent(-1, "process_sort_index",
                           std::to_string(profilerPid)));
    bool stage_row[numStages] = {};
    for (const ProfSpan &span : spans)
        stage_row[static_cast<std::size_t>(span.stage)] = true;
    for (std::size_t i = 0; i < numStages; ++i)
        if (stage_row[i])
            emit(profMetadataEvent(
                static_cast<long long>(i), "thread_name",
                stageName(static_cast<Stage>(i))));
    for (const ProfSpan &span : spans)
        emit(profSpanEvent(span));

    out += os.str();
    out += suffix;
    return out;
}

void
writeMergedChromeTraceFile(
    const std::vector<trace::LifecycleEvent> &events,
    const Profiler &profiler, const std::string &path,
    const trace::FlightRecorder *labels)
{
    const std::string json = mergedChromeTrace(events, profiler, labels);
    ckpt::atomicWriteFile(path, json.data(), json.size());
}

std::string
profileJson(const Profiler &profiler, std::uint64_t refs)
{
    const ProfReport report = profiler.snapshot();
    std::ostringstream os;
    os << "{\"refs\":" << refs << ",\"batches\":" << report.batches
       << ",\"stages\":[";
    bool first = true;
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        const StageStats &st = report.stage(s);
        if (st.calls == 0 && st.ns == 0)
            continue;
        if (!first)
            os << ",";
        first = false;
        const double per_ref =
            refs > 0 ? static_cast<double>(st.ns) /
                           static_cast<double>(refs)
                     : 0.0;
        os << "{\"stage\":\"" << stageName(s) << "\",\"parent\":\""
           << stageName(stageParent(s)) << "\",\"calls\":" << st.calls
           << ",\"ns\":" << st.ns
           << ",\"ns_per_ref\":" << fixed(per_ref, 3) << "}";
    }
    os << "]}";
    return os.str();
}

} // namespace memories::profile
