/**
 * @file
 * tracetool — command-line utility over captured bus traces.
 *
 *   tracetool stats  <trace>                   summary report
 *   tracetool slice  <in> <out> <from> <count> cut a window
 *   tracetool filter <in> <out> <cpu>          keep one CPU's tenures
 *   tracetool replay <trace> <size> <assoc>    detailed-sim replay
 *   tracetool chrome <trace> <out.json>        lifecycle timeline JSON
 *   tracetool demo [--chrome-trace=out.json]   self-contained demo
 *
 * The demo generates a capture via the board, then exercises every
 * subcommand on it — run `tracetool demo` to see the workflow. A
 * malformed, unknown or missing argument exits 2 with the usage.
 *
 * `chrome` replays the captured bus stream through a bus + board with a
 * flight recorder attached (the full lifecycle pipeline) and writes the
 * event stream in Chrome trace-event JSON — load the file in
 * chrome://tracing or https://ui.perfetto.dev to see every tenure's
 * issue-to-combine span, its buffer residency, and the cache events it
 * caused. The demo's --chrome-trace flag leaves that JSON on disk (CI
 * validates and archives it).
 */

#include <cstdio>
#include <string>
#include <string_view>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

int
cmdStats(const std::string &path)
{
    const auto stats = trace::TraceStats::fromFile(path);
    std::printf("%s", stats.report().c_str());
    return 0;
}

int
cmdSlice(const std::string &in, const std::string &out,
         std::uint64_t from, std::uint64_t count)
{
    const auto sliced =
        trace::sliceTrace(trace::readBusTrace(in).stream, from, count);
    trace::writeBusTrace(out, sliced);
    std::printf("copied %llu records to %s\n",
                static_cast<unsigned long long>(sliced.size()),
                out.c_str());
    return 0;
}

int
cmdFilter(const std::string &in, const std::string &out, unsigned cpu)
{
    const auto kept = trace::filterTrace(
        trace::readBusTrace(in).stream,
        [cpu](const bus::BusTransaction &txn) { return txn.cpu == cpu; });
    trace::writeBusTrace(out, kept);
    std::printf("kept %llu records from cpu %u in %s\n",
                static_cast<unsigned long long>(kept.size()), cpu,
                out.c_str());
    return 0;
}

int
cmdReplay(const std::string &path, std::uint64_t size, unsigned assoc)
{
    sim::DetailedParams params;
    params.cache = cache::CacheConfig{size, assoc, 128,
                                      cache::ReplacementPolicy::LRU};
    sim::DetailedCacheSimulator simulator(params);
    const auto n = simulator.runTrace(path);
    const auto stats = simulator.stats();
    std::printf("replayed %llu records through %s %u-way: miss ratio "
                "%.4f, mean latency %.1f cycles\n",
                static_cast<unsigned long long>(n),
                formatByteSize(size).c_str(), assoc,
                stats.missRatio(), stats.meanLatencyCycles);
    return 0;
}

int
cmdChrome(const std::string &in, const std::string &out)
{
    // Replay through the real pipeline so the timeline shows the same
    // lifecycle a live run would record: bus issue/snoop/combine spans,
    // board commit-to-retire residency, per-node cache events.
    trace::FlightRecorder recorder;
    bus::Bus6xx bus;
    bus.attachFlightRecorder(recorder);

    // Two 8-CPU nodes cover every host CPU id a capture can contain.
    auto board = ies::MemoriesBoard::make(ies::makeUniformBoard(
        2, 8,
        cache::CacheConfig{16 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board->plugInto(bus);
    board->attachFlightRecorder(recorder, 0);

    const trace::BusTrace trace = trace::readBusTrace(in);
    for (const bus::BusTransaction &txn : trace.stream) {
        bus.advanceTo(txn.cycle);
        bus.issue(txn);
    }
    const std::uint64_t replayed = trace.stream.size();
    board->drainAll();
    board->unplug(bus);

    const auto events = recorder.snapshot();
    trace::writeChromeTraceFile(events, out, &recorder);
    std::printf("replayed %llu records; wrote %llu lifecycle events "
                "as Chrome trace JSON to %s\n",
                static_cast<unsigned long long>(replayed),
                static_cast<unsigned long long>(events.size()),
                out.c_str());
    if (recorder.overwritten() > 0) {
        std::printf("note: ring wrapped; the oldest %llu events were "
                    "overwritten (raise the ring size for a full "
                    "timeline)\n",
                    static_cast<unsigned long long>(
                        recorder.overwritten()));
    }
    return 0;
}

int
demo(const std::string &chrome_out)
{
    const std::string path = "/tmp/memories_tracetool_demo.ies";

    // Capture a trace through the board.
    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = 64 * MiB;
    workload::OltpWorkload wl(oltp);
    host::HostMachine machine(host::s7aConfig(), wl);
    ies::BoardConfig cfg = ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{16 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    cfg.traceCapture = true;
    cfg.traceCaptureRecords = 1 << 22;
    auto board = ies::MemoriesBoard::make(cfg);
    board->plugInto(machine.bus());
    machine.run(2'000'000);
    board->drainAll();
    board->captureBuffer()->dumpToFile(path);
    std::printf("captured %llu bus records\n\n",
                static_cast<unsigned long long>(
                    board->captureBuffer()->size()));

    std::printf("== stats ==\n");
    cmdStats(path);
    std::printf("\n== slice ==\n");
    cmdSlice(path, path + ".slice", 100, 1000);
    std::printf("\n== filter cpu 0 ==\n");
    cmdFilter(path, path + ".cpu0", 0);
    std::printf("\n== replay ==\n");
    cmdReplay(path, 16 * MiB, 4);
    if (!chrome_out.empty()) {
        std::printf("\n== chrome trace ==\n");
        cmdChrome(path, chrome_out);
    }

    std::remove((path + ".slice").c_str());
    std::remove((path + ".cpu0").c_str());
    std::remove(path.c_str());
    return 0;
}

int
program(int argc, char **argv)
{
    using namespace memories;

    // Every argument, numbers included, is checked before any file is
    // read: a malformed one is a usage error, never a silent zero.
    std::string in, out, chrome_out;
    std::uint64_t from = 0, count = 0, size = 0;
    unsigned cpu = 0, assoc = 0;
    CommandLine cli("stats <trace>\n"
                    "slice <in> <out> <from> <count>\n"
                    "filter <in> <out> <cpu 0-15>\n"
                    "replay <trace> <size> <assoc>\n"
                    "chrome <trace> <out.json>\n"
                    "demo [--chrome-trace=out.json]");
    cli.command("stats").positional("trace", in);
    cli.command("slice")
        .positional("in", in)
        .positional("out", out)
        .positional("from", from)
        .positional("count", count);
    // The packed record names CPUs 0-15 only.
    cli.command("filter")
        .positional("in", in)
        .positional("out", out)
        .positional("cpu", cpu, 0, 15);
    cli.command("replay")
        .positional("trace", in)
        .positional("size",
                    [&](std::string_view text) {
                        size = parseByteSize(text);
                    })
        .positional("assoc", assoc, 1);
    cli.command("chrome")
        .positional("trace", in)
        .positional("out.json", out);
    cli.command("demo").flag("--chrome-trace", chrome_out);
    const std::string cmd = cli.parseOrExit(argc, argv);

    if (cmd == "stats")
        return cmdStats(in);
    if (cmd == "slice")
        return cmdSlice(in, out, from, count);
    if (cmd == "filter")
        return cmdFilter(in, out, cpu);
    if (cmd == "replay")
        return cmdReplay(in, size, assoc);
    if (cmd == "chrome")
        return cmdChrome(in, out);
    return demo(chrome_out);
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
