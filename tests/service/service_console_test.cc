/**
 * @file
 * One grammar everywhere: every extension family a service session
 * registers (stream ingest, campaign, session lifecycle, daemon
 * control) must appear in `help`, in-process and over the wire, so
 * interactive, campaign, and service consoles cannot drift apart.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "servicetest.hh"

#include "service/session.hh"

namespace memories::service
{
namespace
{

using namespace testing;

void
expectFamilies(const std::string &help,
               const std::vector<std::string> &families,
               const std::string &what)
{
    for (const auto &family : families)
        EXPECT_NE(help.find(family), std::string::npos)
            << what << ": family '" << family
            << "' missing from help: " << help;
}

TEST(ServiceConsoleTest, SessionHelpListsAllRegisteredFamilies)
{
    SessionOptions options;
    options.stateDir = uniquePath("iesserv-console-state");
    Session session(options, "t0");
    const auto help = session.execute("help");
    // Built-ins first (the console's own grammar)...
    expectFamilies(help, {"node", "buffer", "throughput", "init",
                          "stats", "counters", "save-state"},
                   "builtins");
    // ...then every family Session plugs in via registerCommand.
    expectFamilies(help,
                   {"campaign", "drain", "feed", "fleet", "session",
                    "stream"},
                   "session extensions");
}

TEST(ServiceConsoleTest, FeedsMoveTheClockOfMonitorAndTraceMarks)
{
    // Feeds reach the board through feedBatch, never across the
    // session's bus, yet that bus is the clock of `monitor` and of
    // `trace mark`: the session carries it to the last fed cycle.
    SessionOptions options;
    options.stateDir = uniquePath("iesserv-console-state");
    Session session(options, "t0");
    for (const auto &line : configScript())
        ASSERT_EQ(session.execute(line).rfind("error:", 0),
                  std::string::npos)
            << line;
    ASSERT_EQ(session.execute("monitor start 1000").rfind("monitoring", 0),
              0u);
    ASSERT_EQ(session.execute("trace start").rfind("flight recorder", 0),
              0u);

    // Eight reads 250 cycles apart (a record's delta field holds at
    // most 255): the line ends at cycle 1750, past the first window.
    std::string feed = "feed";
    Cycle prev = 0;
    for (Cycle at = 0; at < 2000; at += 250) {
        bus::BusTransaction txn;
        txn.addr = 0x10000 + 128 * at;
        txn.cycle = at;
        feed += ' ' + encodeRecordHex(trace::BusRecord::pack(txn, prev).raw);
        prev = at;
    }
    EXPECT_EQ(session.execute(feed), "fed 8 accepted 8 of 8");

    const std::string view = session.execute("monitor");
    EXPECT_EQ(view.rfind("window 0 [0, 1000)", 0), 0u) << view;
    EXPECT_EQ(session.execute("trace mark fed"),
              "marked 'fed' at cycle 1750");
}

/**
 * A session on a 2-entry buffer in raw admission with a flight
 * recorder, and a feed line of four reads at cycle 0 that overflows it.
 */
class AutodumpSession
{
  public:
    AutodumpSession() : session_(options(), "t0")
    {
        for (const char *line :
             {"node 0 cache 2MB 4 128B LRU", "node 0 cpus 0,1,2,3",
              "buffer 2", "init", "stream pace off", "trace start 1024"})
            EXPECT_EQ(session_.execute(line).rfind("error:", 0),
                      std::string::npos)
                << line;
    }

    std::string execute(const std::string &line)
    {
        return session_.execute(line);
    }

    /** Feed four reads at cycle 0 (two more than the buffer holds). */
    std::string feedFour()
    {
        std::string feed = "feed";
        for (Addr addr = 0x10000; addr < 0x10200; addr += 128) {
            bus::BusTransaction txn;
            txn.addr = addr;
            feed += ' ' + encodeRecordHex(trace::BusRecord::pack(txn, 0).raw);
        }
        return session_.execute(feed);
    }

  private:
    static SessionOptions options()
    {
        SessionOptions options;
        options.stateDir = uniquePath("iesserv-console-state");
        return options;
    }

    Session session_;
};

TEST(ServiceConsoleTest, AnAutodumpPathThatCannotBeWrittenIsRefused)
{
    // The hook dumps from inside board admission, where a failure
    // would surface as this feed's error after the board had taken
    // records: so the arm line fails, and the feed lands clean.
    AutodumpSession session;
    EXPECT_EQ(session.execute("trace autodump /nonexistent/dir/x.spans")
                  .rfind("error: cannot write", 0),
              0u);
    EXPECT_EQ(session.feedFour().rfind("fed 4 accepted ", 0), 0u);
    EXPECT_NE(session.execute("stream status").find("attempted 4"),
              std::string::npos);
    EXPECT_EQ(session.execute("trace status").find("autodumps"),
              std::string::npos);
}

TEST(ServiceConsoleTest, AnAutodumpThatFailsLaterIsCountedNotReplied)
{
    const std::string dir = uniquePath("iesserv-autodump");
    std::filesystem::create_directories(dir);
    AutodumpSession session;
    ASSERT_EQ(session.execute("trace autodump " + dir + "/x.spans")
                  .rfind("flight recorder will dump", 0),
              0u);
    std::filesystem::remove_all(dir);

    const std::string fed = session.feedFour();
    EXPECT_EQ(fed.rfind("fed 4 accepted ", 0), 0u) << fed;
    const std::string stream = session.execute("stream status");
    EXPECT_NE(stream.find("attempted 4"), std::string::npos) << stream;
    const std::string status = session.execute("trace status");
    const auto at = status.find(" failed ");
    ASSERT_NE(at, std::string::npos) << status;
    EXPECT_GE(std::stoull(status.substr(at + 8)), 1u) << status;
    EXPECT_NE(status.find("autodumps written 0 "), std::string::npos)
        << status;
}

TEST(ServiceConsoleTest, WireHelpAddsTheServerFamily)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    EXPECT_NE(client.greeting().find("iesserv ready session"),
              std::string::npos)
        << client.greeting();

    const auto help = client.exec("help");
    ASSERT_TRUE(help.ok);
    // The daemon serves the session grammar PLUS its own control
    // family; nothing a session registered may be shadowed or lost.
    expectFamilies(help.text(),
                   {"campaign", "drain", "feed", "fleet", "server",
                    "session", "stream"},
                   "wire");
}

TEST(ServiceConsoleTest, BuiltinsCannotBeShadowedOverTheWire)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    // `init` before any node config is a builtin-path error, proving
    // the request went to the builtin, not to any extension.
    const auto reply = client.exec("init");
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.text().find("error:"), std::string::npos);
}

TEST(ServiceConsoleTest, ServerStatusAndMetricsRespond)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));

    const auto status = client.exec("server status");
    ASSERT_TRUE(status.ok) << status.text();
    EXPECT_NE(status.text().find("sessions"), std::string::npos);

    // Metrics need a closed telemetry window; issue enough requests.
    for (int i = 0; i < 20; ++i)
        client.exec("session status");
    const auto metrics = client.exec("server metrics");
    ASSERT_TRUE(metrics.ok) << metrics.text();
    EXPECT_NE(metrics.text().find("serv.sessions.opened"),
              std::string::npos)
        << metrics.text();
}

TEST(ServiceConsoleTest, LostStateDirectoryCostsNoRequest)
{
    // Every request closes a window and rewrites metrics.prom. Once
    // the state directory is gone that write fails; the request that
    // closed the window must still be answered, the daemon must keep
    // accepting, and `server metrics` keeps the last text it rendered.
    TestDaemon daemon(16, 1);
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    ASSERT_TRUE(client.exec("help").ok); // closes window 0

    std::stringstream disk;
    disk << std::ifstream(daemon.get().metricsPath()).rdbuf();
    const auto metrics = client.exec("server metrics"); // closes 1
    ASSERT_TRUE(metrics.ok) << metrics.text();
    EXPECT_EQ(metrics.text() + "\n", disk.str());

    std::filesystem::remove_all(daemon.options.stateDir);
    const auto again = client.exec("help"); // closes 2, unwritten
    ASSERT_TRUE(again.ok) << again.text();
    EXPECT_NE(again.text().find("server"), std::string::npos);
    const auto last = client.exec("server metrics");
    ASSERT_TRUE(last.ok) << last.text();
    EXPECT_EQ(last.text().rfind("# MemorIES telemetry, window 2,", 0), 0u)
        << last.text();
    EXPECT_FALSE(std::filesystem::exists(daemon.get().metricsPath()));

    ServiceClient other;
    ASSERT_TRUE(other.connect(daemon.socket()));
    EXPECT_TRUE(other.exec("server status").ok);
}

} // namespace
} // namespace memories::service
