#include "ies/console.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "host/machine.hh"
#include "trace/tracefile.hh"
#include "workload/synthetic.hh"

namespace memories::ies
{
namespace
{

bus::BusTransaction
readTxn(Addr addr, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = bus::BusOp::Read;
    t.cpu = cpu;
    return t;
}

TEST(ConsoleTest, ConfiguresAndInitializesBoard)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_FALSE(console.initialized());

    EXPECT_NE(console.execute("node 0 cache 64MB 4 128B LRU")
                  .find("64MB"), std::string::npos);
    console.execute("node 0 cpus 0,1,2,3");
    console.execute("node 0 protocol MESI");
    const auto reply = console.execute("init");
    EXPECT_NE(reply.find("1 node"), std::string::npos);
    EXPECT_TRUE(console.initialized());
    ASSERT_NE(console.board(), nullptr);
    EXPECT_EQ(console.board()->numNodes(), 1u);
}

TEST(ConsoleTest, StatsReflectTraffic)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();

    const auto stats = console.execute("stats");
    EXPECT_NE(stats.find("refs 2"), std::string::npos);
    EXPECT_NE(stats.find("hits 1"), std::string::npos);
}

TEST(ConsoleTest, CountersCommandDumpsRawNames)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    const auto counters = console.execute("counters");
    EXPECT_NE(counters.find("node0.local.READ.hit"), std::string::npos);
    EXPECT_NE(counters.find("global.tenures.memory"),
              std::string::npos);
}

TEST(ConsoleTest, ErrorsComeBackAsText)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("bogus").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("stats").find("error:"),
              std::string::npos); // no board yet
    EXPECT_NE(console.execute("node 0 cache 1KB 4 128B").find("error:"),
              std::string::npos); // below Table 2 range
}

TEST(ConsoleTest, ConfigAfterInitIsRejected)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    EXPECT_NE(console.execute("node 0 cache 4MB 4 128B").find("error:"),
              std::string::npos);
}

TEST(ConsoleTest, ClearAndReset)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    bus.issue(readTxn(0x1000, 0));
    console.board()->drainAll();

    console.execute("clear");
    EXPECT_EQ(console.board()->node(0).stats().localRefs, 0u);
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 1u);

    console.execute("reset");
    EXPECT_EQ(console.board()->node(0).directoryOccupancy(), 0u);
}

TEST(ConsoleTest, MultiNodeMultiProtocol)
{
    // Section 3.2: different state tables on different node
    // controllers in the same measurement.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("node 0 protocol MESI");
    console.execute("node 1 cache 2MB 4 128B");
    console.execute("node 1 cpus 2,3");
    console.execute("node 1 protocol MOESI");
    console.execute("init");
    EXPECT_EQ(console.board()->node(0).config().protocol.name(), "MESI");
    EXPECT_EQ(console.board()->node(1).config().protocol.name(),
              "MOESI");
}

TEST(ConsoleTest, CaptureAndDumpTrace)
{
    const std::string path = ::testing::TempDir() + "console_trace.ies";
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("capture 1024");
    console.execute("init");

    bus.issue(readTxn(0x1000, 0));
    bus.issue(readTxn(0x2000, 0));
    console.board()->drainAll();

    const auto reply = console.execute("dump-trace " + path);
    EXPECT_NE(reply.find("2 records"), std::string::npos);
    const trace::BusTrace dumped = trace::readBusTrace(path);
    ASSERT_EQ(dumped.stream.size(), 2u);
    EXPECT_EQ(dumped.stream[0].addr, 0x1000u);
    EXPECT_EQ(dumped.stream[1].addr, 0x2000u);
    EXPECT_NE(console.execute("ckpt info " + path)
                  .find("bus_trace: 32 bytes"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(ConsoleTest, NonRegularFilesAreRefusedAtOnce)
{
    // A device never reaches EOF: reading /dev/zero whole would run
    // until memory ran out.
    bus::Bus6xx bus;
    Console console(bus);
    for (const char *line : {"script /dev/zero", "ckpt info /dev/zero"}) {
        const std::string reply = console.execute(line);
        EXPECT_EQ(reply.rfind("error: ", 0), 0u) << line << ": " << reply;
        EXPECT_NE(reply.find("'/dev/zero' is not a regular file"),
                  std::string::npos)
            << line << ": " << reply;
    }
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    ASSERT_EQ(console.execute("init").rfind("error:", 0),
              std::string::npos);
    EXPECT_EQ(console.execute("load-state /dev/zero").rfind("error: ", 0),
              0u);
}

TEST(ConsoleTest, ShutdownDetaches)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    EXPECT_EQ(bus.snooperCount(), 1u);
    console.execute("shutdown");
    EXPECT_EQ(bus.snooperCount(), 0u);
    EXPECT_FALSE(console.initialized());
}

TEST(ConsoleTest, HelpListsCommands)
{
    bus::Bus6xx bus;
    Console console(bus);
    const auto help = console.execute("help");
    EXPECT_NE(help.find("init"), std::string::npos);
    EXPECT_NE(help.find("stats"), std::string::npos);
}

TEST(ConsoleTest, HelpNamesEveryCommandItDispatches)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.registerCommand("echo", [](Console &, std::string_view) {
        return std::string("echoed");
    });
    const std::vector<std::string> words =
        splitWords(console.execute("help"));
    ASSERT_FALSE(words.empty());
    EXPECT_EQ(words[0], "commands:");
    const std::set<std::string> listed(words.begin() + 1, words.end());

    // Every family the console dispatches is listed...
    for (const char *name :
         {"node", "buffer", "throughput", "capture", "init", "stats",
          "counters", "clear", "reset", "dump-trace", "save-state",
          "load-state", "ckpt", "monitor", "trace", "prof",
          "save-protocol", "export-csv", "fault", "health", "script",
          "shutdown", "help", "echo"})
        EXPECT_EQ(listed.count(name), 1u) << name;
    // ...and every listed name dispatches.
    for (const std::string &name : listed)
        EXPECT_EQ(console.execute(name).find("unknown command"),
                  std::string::npos)
            << name;
}

TEST(ConsoleTest, RecordsTheConfigLinesItAcceptsBeforeInit)
{
    const std::string script =
        ::testing::TempDir() + "console_config_lines.script";
    std::ofstream(script) << "# staged by a script\nbuffer 64\n"
                             "throughput 42\n";

    bus::Bus6xx bus;
    Console console(bus);
    for (const std::string &line : {
             std::string("node 0 cache 2MB 4 128B"),
             std::string("buffer -1"),               // error
             std::string("node 0\tcpus 0,1\r"),
             std::string("health"),                  // status query
             std::string("health status"),           // status query
             std::string("health on"),
             std::string("health degrade-window 8"),
             std::string("capture 64"),
             std::string("help"),
             "script " + script, // its lines, not the script line
             std::string("init"),
             std::string("stats"),
             std::string("buffer 8"), // error after init
         })
        console.execute(line);
    EXPECT_EQ(console.configLines(),
              (std::vector<std::string>{
                  "node 0 cache 2MB 4 128B", "node 0\tcpus 0,1\r",
                  "health on", "health degrade-window 8", "capture 64",
                  "buffer 64", "throughput 42"}));
    std::remove(script.c_str());
}

TEST(ConsoleTest, RejectedConfigLineLeavesTheStagedBoardAsItWas)
{
    // Both consoles run the staged lines; only one also runs the
    // rejected line. After it, init and stats read the same on both.
    const struct
    {
        std::vector<std::string> staged;
        std::string rejected;
    } cases[] = {
        {{}, "node 5 cpus 1,x"},
        {{"node 0 cpus 0,1"}, "node 0 cache 4MB 4 128B Bogus"},
        {{"node 0 cpus 0,1"}, "node 0 cache 3MB 4 128B"},
    };
    for (const auto &c : cases) {
        bus::Bus6xx seenBus;
        bus::Bus6xx freshBus;
        Console seen(seenBus);
        Console fresh(freshBus);
        for (const std::string &line : c.staged) {
            seen.execute(line);
            fresh.execute(line);
        }
        EXPECT_EQ(seen.execute(c.rejected).rfind("error: ", 0), 0u)
            << c.rejected;
        EXPECT_EQ(seen.configLines(), fresh.configLines()) << c.rejected;
        EXPECT_EQ(seen.execute("init"), fresh.execute("init"))
            << c.rejected;
        EXPECT_EQ(seen.execute("stats"), fresh.execute("stats"))
            << c.rejected;
    }
}

TEST(ConsoleTest, NumbersThatDoNotFitAreRejected)
{
    bus::Bus6xx bus;
    Console console(bus);
    for (const char *line : {
             "node 0 cache 18446744073711648768 4 128B",
             "node 0 cache 17592186044418MB 4 128B",
             "node 0 cpus 256,257",
             "throughput 4294967338",
             "health degrade-window 4294967297",
         }) {
        const std::string reply = console.execute(line);
        EXPECT_EQ(reply.rfind("error: ", 0), 0u) << line << ": " << reply;
        EXPECT_NE(reply.find("out of range"), std::string::npos)
            << line << ": " << reply;
    }
    EXPECT_TRUE(console.configLines().empty());
}

TEST(ConsoleTest, TokensSplitOnTheSixWhitespaceCharacters)
{
    EXPECT_EQ(splitWords(" a\tb\nc\vd\fe\rf  g"),
              (std::vector<std::string>{"a", "b", "c", "d", "e", "f", "g"}));
    EXPECT_TRUE(splitWords(" \t\r\n").empty());

    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_EQ(console.execute("\tnode 0\tcache 64MB  4 128B\r"),
              console.execute("node 0 cache 64MB 4 128B"));
}

TEST(ConsoleTest, ExtensionsGetTheLineButNeverShadowBuiltins)
{
    bus::Bus6xx bus;
    Console console(bus);
    std::string seen;
    console.registerCommand("echo", [&](Console &, std::string_view line) {
        seen = line;
        return std::string("echoed");
    });
    EXPECT_EQ(console.execute("\techo  a\tb\r"), "echoed");
    EXPECT_EQ(seen, "\techo  a\tb\r");

    for (const char *name :
         {"node", "buffer", "throughput", "capture", "init", "stats",
          "counters", "clear", "reset", "dump-trace", "save-state",
          "load-state", "ckpt", "monitor", "trace", "prof",
          "save-protocol", "export-csv", "fault", "health", "script",
          "shutdown", "help"}) {
        console.registerCommand(name, [](Console &, std::string_view) {
            return std::string("shadowed");
        });
        EXPECT_NE(console.execute(name), "shadowed") << name;
    }
}

TEST(ConsoleTest, MonitorShowsLiveWindows)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_NE(console.execute("monitor start 1000")
                  .find("monitoring every 1000 bus cycles"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor").find("no window closed yet"),
              std::string::npos);

    bus.issue(readTxn(0x1000, 0));
    bus.tick(2500); // crosses at least two window boundaries

    const auto view = console.execute("monitor");
    EXPECT_NE(view.find("window"), std::string::npos);
    EXPECT_NE(view.find("utilization"), std::string::npos);
    EXPECT_NE(view.find("node0: refs"), std::string::npos);

    EXPECT_NE(console.execute("monitor stop").find("monitor stopped"),
              std::string::npos);
    // The bus must no longer drive a sampler.
    EXPECT_NO_THROW(bus.tick(5000));
}

TEST(ConsoleTest, MonitorRequiresBoardAndSingleSession)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("monitor start 1000").find("error"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");
    console.execute("monitor start 1000");
    EXPECT_NE(console.execute("monitor start 500").find("error"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor stop").find("stopped"),
              std::string::npos);
    EXPECT_NE(console.execute("monitor stop").find("error"),
              std::string::npos);
}

TEST(ConsoleTest, MonitorRefusesAnUnwritablePathAtOnce)
{
    // The JSON Lines file opens when the line runs, so a bad path is
    // this line's error, not an exception at the first window close,
    // and no session is left attached.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    const auto reply =
        console.execute("monitor start 100 /nonexistent/dir/m.jsonl");
    EXPECT_EQ(reply.rfind("error:", 0), 0u) << reply;
    EXPECT_FALSE(console.monitoring());
    EXPECT_EQ(console.execute("monitor").rfind(
                  "error: no monitor session; ", 0),
              0u);
    bus.issue(readTxn(0x1000, 0));
    EXPECT_NO_THROW(bus.tick(1000));
}

TEST(ConsoleTest, MonitorStartsMidSessionWithoutBackfill)
{
    // Starting the monitor after bus time has advanced must not emit
    // the empty windows since cycle 0 — the first closed window begins
    // at the attach-time boundary.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    bus.tick(10'000);
    console.execute("monitor start 1000");
    bus.issue(readTxn(0x2000, 0));
    bus.tick(1'500); // to cycle 11500: closes [10000,11000) only

    const auto view = console.execute("monitor");
    EXPECT_NE(view.find("[10000, 11000)"), std::string::npos)
        << view;
}

TEST(ConsoleTest, TraceCommandFamilyDrivesFlightRecorder)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_EQ(console.flightRecorder(), nullptr);
    console.execute("trace start 1024");
    ASSERT_NE(console.flightRecorder(), nullptr);

    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();
    console.execute("trace mark phase one done");
    const std::string overlong(
        trace::FlightRecorder::maxMarkLabelBytes + 1, 'x');
    EXPECT_EQ(console.execute("trace mark " + overlong).rfind("error:", 0),
              0u);

    const auto status = console.execute("trace status");
    EXPECT_NE(status.find("recorded"), std::string::npos) << status;
    const auto shown = console.execute("trace show 64");
    EXPECT_NE(shown.find("issue"), std::string::npos) << shown;
    EXPECT_NE(shown.find("phase one done"), std::string::npos) << shown;

    const std::string dumpPath =
        ::testing::TempDir() + "console_trace_dump.spans";
    const std::string jsonPath =
        ::testing::TempDir() + "console_trace_dump.json";
    console.execute("trace dump " + dumpPath);
    console.execute("trace chrome " + jsonPath);
    EXPECT_FALSE(trace::readLifecycleDump(dumpPath).empty());
    const auto info = console.execute("ckpt info " + dumpPath);
    EXPECT_NE(info.find("lifecycle:"), std::string::npos) << info;
    {
        std::FILE *f = std::fopen(jsonPath.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        char head[16] = {};
        EXPECT_GT(std::fread(head, 1, sizeof(head), f), 0u);
        std::fclose(f);
        EXPECT_EQ(head[0], '{');
    }
    std::remove(dumpPath.c_str());
    std::remove(jsonPath.c_str());

    console.execute("trace stop");
    EXPECT_EQ(console.flightRecorder(), nullptr);
    EXPECT_EQ(bus.flightRecorder(), nullptr);
}

TEST(ConsoleTest, TraceStartRefusesRingsAboveTheCeilingAtOnce)
{
    // Rounding these up to a power of two overflowed (the first two
    // spun forever) or asked for exabytes; a count above the ceiling
    // is refused before anything is allocated.
    bus::Bus6xx bus;
    Console console(bus);
    for (const char *line : {"trace start 9223372036854775809",
                             "trace start 18446744073709551615",
                             "trace start 9223372036854775808",
                             "trace start 4194305"}) {
        EXPECT_EQ(console.execute(line).rfind("error: event count", 0),
                  0u)
            << line;
        EXPECT_EQ(console.flightRecorder(), nullptr) << line;
    }
    EXPECT_THROW(trace::FlightRecorder(trace::FlightRecorder::maxCapacity +
                                       1),
                 FatalError);
}

TEST(ConsoleTest, MonitorAndStatsAgreeOnTheMissRatio)
{
    // 100 reads of fresh lines miss; 100 cast-outs of the same lines
    // hit. A node's miss ratio counts references only, so the window
    // must read what `stats` reads (1), not 100 of 200 (0.5).
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");
    console.execute("monitor start 100000");
    for (const bus::BusOp op : {bus::BusOp::Read, bus::BusOp::WriteBack}) {
        for (Addr i = 0; i < 100; ++i) {
            auto txn = readTxn(0x100000 + i * 128, 0);
            txn.op = op;
            bus.issue(txn);
            bus.tick(100);
        }
    }
    console.board()->drainAll();
    bus.tick(100'000); // closes [0, 100000), which holds all 200

    const auto ratio = [](const std::string &text, const std::string &at) {
        const auto from = text.find(at);
        const auto key = text.find("miss-ratio ", from);
        EXPECT_NE(from, std::string::npos) << text;
        EXPECT_NE(key, std::string::npos) << text;
        return key == std::string::npos ? -1.0
                                        : std::stod(text.substr(key + 11));
    };
    const auto stats = console.execute("stats");
    const auto view = console.execute("monitor");
    EXPECT_NE(stats.find("refs 100 hits 0 misses 100"), std::string::npos)
        << stats;
    EXPECT_NE(view.find("node0: refs 100 misses 100"), std::string::npos)
        << view;
    EXPECT_EQ(ratio(view, "node0: refs"), ratio(stats, "  refs "));
}

TEST(ConsoleTest, TraceAutodumpWritesRingOnAnomaly)
{
    // A 2-entry transaction buffer plus back-to-back issues forces an
    // overflow anomaly; the armed autodump must leave the lifecycle
    // history on disk without any further operator action.
    const std::string dumpPath =
        ::testing::TempDir() + "console_autodump.spans";
    std::remove(dumpPath.c_str());

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("buffer 2");
    console.execute("init");
    console.execute("trace start 1024");
    console.execute("trace autodump " + dumpPath);

    for (int i = 0; i < 8; ++i)
        bus.issue(readTxn(0x1000u + 128u * i, 0));

    ASSERT_NE(console.flightRecorder(), nullptr);
    EXPECT_GE(console.flightRecorder()->anomalies(), 1u);
    const auto dumped = trace::readLifecycleDump(dumpPath);
    ASSERT_FALSE(dumped.empty());
    EXPECT_EQ(dumped.back().kind, trace::EventKind::Anomaly);
    std::remove(dumpPath.c_str());
}

TEST(ConsoleTest, TraceAutodumpWritesOnceThroughAnAnomalyStorm)
{
    // Back-to-back reads on a 2-entry buffer raise an overflow anomaly
    // on nearly every tenure. Each dump rewrites and syncs the whole
    // ring, so only an anomaly after half a ring of new events dumps
    // again; this storm records far less than half of 65536 events.
    const std::string dumpPath =
        ::testing::TempDir() + "console_autodump_storm.spans";
    std::remove(dumpPath.c_str());

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("buffer 2");
    console.execute("init");
    console.execute("trace start 65536");
    console.execute("trace autodump " + dumpPath);

    for (int i = 0; i < 2000; ++i)
        bus.issue(readTxn(0x1000u + 128u * i, 0));

    const trace::FlightRecorder &rec = *console.flightRecorder();
    ASSERT_GT(rec.anomalies(), 1000u);
    ASSERT_LT(rec.recorded(), rec.capacity() / 2);
    const std::string status = console.execute("trace status");
    EXPECT_NE(status.find("autodumps written 1 skipped " +
                          std::to_string(rec.anomalies() - 1)),
              std::string::npos)
        << status;
    const auto dumped = trace::readLifecycleDump(dumpPath);
    ASSERT_FALSE(dumped.empty());
    EXPECT_EQ(dumped.back().kind, trace::EventKind::Anomaly);
    EXPECT_LT(dumped.size(), rec.recorded());
    std::remove(dumpPath.c_str());
}

TEST(ConsoleTest, TraceAutodumpDumpsAgainAfterHalfARing)
{
    // With a 16-event ring, eight new events re-arm the dump.
    const std::string dumpPath =
        ::testing::TempDir() + "console_autodump_rearm.spans";
    std::remove(dumpPath.c_str());

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("buffer 2");
    console.execute("init");
    console.execute("trace start 16");
    console.execute("trace autodump " + dumpPath);

    for (int i = 0; i < 40; ++i)
        bus.issue(readTxn(0x1000u + 128u * i, 0));

    const trace::FlightRecorder &rec = *console.flightRecorder();
    const std::string status = console.execute("trace status");
    const auto at = status.find("autodumps written ");
    ASSERT_NE(at, std::string::npos) << status;
    const std::uint64_t written = std::stoull(status.substr(at + 18));
    EXPECT_GT(written, 1u) << status;
    EXPECT_LE(written, rec.recorded() / 8 + 1) << status;
    EXPECT_NE(status.find(" skipped " +
                          std::to_string(rec.anomalies() - written)),
              std::string::npos)
        << status;
    std::remove(dumpPath.c_str());
}

TEST(ConsoleTest, TraceAutodumpRefusesAnUnwritableDirectoryAtOnce)
{
    // The dump is written later, from inside board admission: a path
    // that cannot be written is this line's error, and nothing is armed.
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("buffer 2");
    console.execute("init");
    console.execute("trace start 1024");

    const std::string reply =
        console.execute("trace autodump /nonexistent/dir/x.spans");
    EXPECT_EQ(reply.rfind("error: cannot write '/nonexistent/dir/x.spans'",
                          0),
              0u)
        << reply;
    for (int i = 0; i < 8; ++i)
        EXPECT_NO_THROW(bus.issue(readTxn(0x1000u + 128u * i, 0)));
    EXPECT_GE(console.flightRecorder()->anomalies(), 1u);
    EXPECT_EQ(console.execute("trace status").find("autodumps"),
              std::string::npos);
}

TEST(ConsoleTest, TraceAutodumpCountsADumpThatFailsOnAHostRun)
{
    // The directory goes away after the dump is armed. The hook runs
    // inside Bus6xx::issue, so a throw would unwind a HostMachine run;
    // instead the run completes and `trace status` counts the failure.
    const std::string dir = ::testing::TempDir() + "console_autodump_gone";
    std::filesystem::create_directories(dir);

    workload::UniformWorkload wl(8, 8 * MiB, 0.3);
    host::HostConfig cfg;
    cfg.numCpus = 8;
    cfg.l1 = cache::CacheConfig{8 * KiB, 2, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.l2 = cache::CacheConfig{128 * KiB, 4, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.cyclesPerRef = 1;
    host::HostMachine machine(cfg, wl);
    Console console(machine.bus());
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1,2,3,4,5,6,7");
    console.execute("buffer 2");
    console.execute("throughput 1");
    console.execute("init");
    console.execute("trace start 1024");
    ASSERT_EQ(console.execute("trace autodump " + dir + "/x.spans")
                  .rfind("flight recorder will dump", 0),
              0u);
    std::filesystem::remove_all(dir);

    EXPECT_NO_THROW(machine.run(2000));
    ASSERT_GE(console.flightRecorder()->anomalies(), 1u);
    const std::string status = console.execute("trace status");
    EXPECT_NE(status.find("autodumps written 0 skipped "), std::string::npos)
        << status;
    const auto at = status.find(" failed ");
    ASSERT_NE(at, std::string::npos) << status;
    EXPECT_GE(std::stoull(status.substr(at + 8)), 1u) << status;
}

TEST(ConsoleTest, FaultCommandFamilyArmsAndDisarms)
{
    const std::string planPath =
        ::testing::TempDir() + "console_fault.plan";
    {
        std::FILE *f = std::fopen(planPath.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const char text[] = "dropreply at 1\n";
        std::fwrite(text, 1, sizeof(text) - 1, f);
        std::fclose(f);
    }

    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    // Arming requires a loaded plan; loading requires a real file.
    EXPECT_NE(console.execute("fault arm").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault load /not/there.plan")
                  .find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault status").find("no fault plan"),
              std::string::npos);

    EXPECT_NE(console.execute("fault load " + planPath)
                  .find("fault plan loaded (1 spec)"),
              std::string::npos);
    EXPECT_NE(console.execute("fault status").find("dropreply"),
              std::string::npos);
    EXPECT_NE(console.execute("fault arm 7")
                  .find("armed (1 spec, seed 7)"),
              std::string::npos);
    ASSERT_NE(console.faultInjector(), nullptr);
    // Reloading or re-arming while armed is rejected.
    EXPECT_NE(console.execute("fault load " + planPath).find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("fault arm").find("error:"),
              std::string::npos);

    // The scheduled fault fires on the first live tenure.
    bus.issue(readTxn(0x1000, 0));
    bus.tick(1000);
    bus.issue(readTxn(0x1000, 1));
    console.board()->drainAll();
    EXPECT_EQ(console.board()->globalCounters().valueByName(
                  "global.tenures.fault_dropped"),
              1u);
    const auto status = console.execute("fault status");
    EXPECT_NE(status.find("seed 7"), std::string::npos) << status;
    EXPECT_NE(status.find("1 injected"), std::string::npos) << status;

    EXPECT_NE(console.execute("fault disarm").find("disarmed"),
              std::string::npos);
    EXPECT_EQ(console.faultInjector(), nullptr);
    // The plan survives disarm: re-arming is immediate.
    EXPECT_NE(console.execute("fault arm").find("armed"),
              std::string::npos);
    // Shutdown disarms rather than leaving a dangling snooper.
    console.execute("shutdown");
    EXPECT_EQ(console.faultInjector(), nullptr);
    std::remove(planPath.c_str());
}

TEST(ConsoleTest, HealthCommandFamilyStagesPolicyBeforeInit)
{
    bus::Bus6xx bus;
    Console console(bus);

    EXPECT_NE(console.execute("health").find("staged health policy:"),
              std::string::npos);
    console.execute("health on");
    console.execute("health degrade-window 4");
    console.execute("health quarantine-storms 3");
    EXPECT_NE(console.execute("health bogus-key 1").find("error:"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    const auto status = console.execute("health status");
    EXPECT_NE(status.find("health healthy"), std::string::npos)
        << status;
    EXPECT_NE(status.find("lost-inflight 0"), std::string::npos)
        << status;
    // The policy is frozen once the board exists.
    EXPECT_NE(console.execute("health off").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("health degrade-window 9").find("error:"),
              std::string::npos);
}

TEST(ConsoleTest, ProfCommandFamilyDrivesProfiler)
{
    bus::Bus6xx bus;
    Console console(bus);
    // Before init, start must refuse and read-outs must explain.
    EXPECT_NE(console.execute("prof start").find("error:"),
              std::string::npos);
    EXPECT_NE(console.execute("prof").find("error:"),
              std::string::npos);

    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    EXPECT_EQ(console.profiler(), nullptr);
    // The profiler keeps no span ring, so start takes no size.
    EXPECT_NE(console.execute("prof start 4096").find("error:"),
              std::string::npos);
    EXPECT_EQ(console.execute("prof start"), "profiler attached");
    ASSERT_NE(console.profiler(), nullptr);
    EXPECT_NE(console.execute("prof start").find("error:"),
              std::string::npos);

    // Drive traffic through the batch path so the hooks fire; spread
    // the cycles out so the paced buffer actually dispatches work.
    std::vector<bus::BusTransaction> txns;
    for (std::uint64_t i = 0; i < 64; ++i) {
        auto t = readTxn(0x1000 + i * 128, i % 2);
        t.cycle = i * 100;
        txns.push_back(t);
    }
    console.board()->feedBatch(txns);
    console.board()->drainAll();

    const auto show = console.execute("prof show");
    EXPECT_NE(show.find("feed_batch"), std::string::npos) << show;
    EXPECT_NE(show.find("emulation"), std::string::npos) << show;

    // The report is numbers only: no command writes a file.
    for (const char *gone : {"prof dump x.folded", "prof chrome x.json"})
        EXPECT_EQ(console.execute(gone).rfind("error:", 0), 0u) << gone;

    EXPECT_NE(console.execute("prof stop").find("profiler detached"),
              std::string::npos);
    EXPECT_EQ(console.profiler(), nullptr);
    EXPECT_EQ(console.board()->profiler(), nullptr);
}

} // namespace
} // namespace memories::ies
