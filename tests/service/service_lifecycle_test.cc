/**
 * @file
 * Session-lifecycle conformance tier: a stream fed through a live
 * daemon session (connect / configure / feed / drain — and across
 * checkpoint-suspend-resume) must leave the board byte-identical to
 * the same stream pushed through feedBatch in-process. The signature
 * is counters text + stats text + IESCKPT container bytes, so any
 * divergence in counters, directories, buffer, or health state fails.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include "checkpoint/io.hh"
#include "service/session.hh"

namespace memories::service
{
namespace
{

using namespace testing;

TEST(ServiceLifecycleTest, PacedSessionMatchesGoldenFeedBatch)
{
    const auto raw = stream(/*seed=*/11, /*count=*/20'000);
    const auto canon = canonical(raw);
    const auto golden = goldenRun(configScript(), canon);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, configScript());

    const auto totals = client.feedAll(raw, /*batch=*/256);
    EXPECT_EQ(totals.accepted, totals.offered)
        << "paced sessions back-pressure, never drop";
    ASSERT_TRUE(client.exec("drain").ok);

    sessionSignature(client).expectEqual(golden, "paced session");
}

TEST(ServiceLifecycleTest, ConformanceIsBatchSizeInvariant)
{
    const auto raw = stream(/*seed=*/12, /*count=*/12'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    for (const std::size_t batch : {17, 256, 4096}) {
        TestDaemon daemon;
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        client.feedAll(raw, batch);
        ASSERT_TRUE(client.exec("drain").ok);
        sessionSignature(client).expectEqual(
            golden, "batch " + std::to_string(batch));
    }
}

TEST(ServiceLifecycleTest, RawModeMatchesGoldenIncludingOverflowDrops)
{
    // A bursty stream against a tiny buffer overflows in batch mode;
    // `stream pace off` must reproduce those drops exactly (raw mode
    // is the upload path for pre-paced trace files).
    oracle::StimulusParams p;
    p.seed = 13;
    p.count = 8'000;
    p.pBurst = 0.9;
    p.maxGap = 2;
    const auto raw = oracle::StimulusGen(p).generate();
    const auto canon = canonical(raw);

    auto script = configScript();
    script[4] = "buffer 8"; // replaces "buffer 64"
    const auto golden = goldenRun(script, canon);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, script);
    ASSERT_TRUE(client.exec("stream pace off").ok);

    const auto totals = client.feedAll(raw, /*batch=*/256);
    EXPECT_EQ(totals.offered, raw.size());
    EXPECT_LT(totals.accepted, totals.offered)
        << "expected overflow drops from this stream";
    ASSERT_TRUE(client.exec("drain").ok);

    sessionSignature(client).expectEqual(golden, "raw mode");
}

TEST(ServiceLifecycleTest, SuspendResumeMatchesStraightThroughRun)
{
    const auto raw = stream(/*seed=*/14, /*count=*/16'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 9'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 9'000,
                                                  raw.end());

    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name alpha").ok);
        const auto totals = client.feedAll(first, /*batch=*/256);
        ASSERT_EQ(totals.accepted, first.size());

        const auto reply = client.exec("session suspend");
        ASSERT_TRUE(reply.ok) << reply.text();
        EXPECT_NE(reply.text().find("suspended 'alpha'"),
                  std::string::npos)
            << reply.text();
        // The daemon closes a suspended session; the connection dies.
        EXPECT_FALSE(client.exec("session status").ok);
    }
    EXPECT_EQ(daemon.get().sessionsSuspended(), 1u);
    EXPECT_TRUE(ckpt::fileExists(
        Session::manifestPath(daemon.options.stateDir, "alpha")));

    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto reply = client.exec("session resume alpha");
        ASSERT_TRUE(reply.ok) << reply.text();
        EXPECT_NE(reply.text().find("resumed 'alpha'"),
                  std::string::npos)
            << reply.text();

        // The daemon's cycle chain resumed mid-stream; match it.
        client.setChainCycle(first.back().cycle);
        const auto totals = client.feedAll(second, /*batch=*/256);
        ASSERT_EQ(totals.accepted, second.size());
        ASSERT_TRUE(client.exec("drain").ok);

        sessionSignature(client).expectEqual(golden, "resumed session");
    }
}

TEST(ServiceLifecycleTest, ScriptConfiguredSessionSuspendsAndResumes)
{
    // Config delivered via `script <path>` must be captured line by
    // line, so a scripted session suspends AND resumes — replay may
    // not fall back to a default board (geometry mismatch).
    const auto raw = stream(/*seed=*/16, /*count=*/8'000);
    const auto golden = goldenRun(configScript(), canonical(raw));

    const std::string scriptPath = uniquePath("iesserv-script") + ".ies";
    {
        std::ofstream out(scriptPath);
        out << "# service config via script file\n";
        for (const auto &line : configScript())
            out << line << "\n";
    }

    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 4'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 4'000,
                                                  raw.end());

    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto scripted = client.exec("script " + scriptPath);
        ASSERT_TRUE(scripted.ok) << scripted.text();
        EXPECT_EQ(scripted.text().find("error:"), std::string::npos)
            << scripted.text();
        ASSERT_TRUE(client.exec("session name scripted").ok);
        const auto totals = client.feedAll(first, /*batch=*/256);
        ASSERT_EQ(totals.accepted, first.size());
        const auto reply = client.exec("session suspend");
        ASSERT_TRUE(reply.ok) << reply.text();
    }
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        const auto reply = client.exec("session resume scripted");
        ASSERT_TRUE(reply.ok) << reply.text();

        client.setChainCycle(first.back().cycle);
        const auto totals = client.feedAll(second, /*batch=*/256);
        ASSERT_EQ(totals.accepted, second.size());
        ASSERT_TRUE(client.exec("drain").ok);
        sessionSignature(client).expectEqual(golden, "scripted resume");
    }
    std::remove(scriptPath.c_str());
}

TEST(ServiceLifecycleTest, TamperedManifestFailsClosedOnResume)
{
    // A manifest counter tampered to exceed uint64 must produce an
    // "error:" reply on resume — the fail-closed promise — not an
    // escaping std::out_of_range that kills the daemon.
    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name tamper").ok);
        client.feedAll(stream(/*seed=*/17, /*count=*/1'000),
                       /*batch=*/256);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    const auto path =
        Session::manifestPath(daemon.options.stateDir, "tamper");
    std::string manifest = readFileBytes(path);
    const auto pos = manifest.find("offered ");
    ASSERT_NE(pos, std::string::npos);
    const auto eol = manifest.find('\n', pos);
    manifest.replace(pos, eol - pos,
                     "offered 99999999999999999999999");
    std::ofstream(path, std::ios::binary) << manifest;

    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto reply = client.exec("session resume tamper");
    EXPECT_FALSE(reply.ok);
    EXPECT_NE(reply.text().find("out of range"), std::string::npos)
        << reply.text();
    // The daemon survived and the session is still usable.
    EXPECT_TRUE(client.exec("session status").ok);
}

TEST(ServiceLifecycleTest, DaemonTotalsCountEachRecordOnce)
{
    // `stream reset` zeroes a session's ingest counters and `session
    // resume` restores them; the daemon's totals must move only with
    // records actually fed.
    const auto raw = stream(/*seed=*/18, /*count=*/1'000);
    TestDaemon daemon;
    std::uint64_t accepted = 0;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("stream pace off").ok);
        ASSERT_TRUE(client.exec("session name totals").ok);
        accepted = client.feedAll(raw, /*batch=*/256).accepted;
        ASSERT_GT(accepted, 0u);
        EXPECT_EQ(daemon.get().refsAccepted(), accepted);

        ASSERT_TRUE(client.exec("stream reset").ok);
        EXPECT_EQ(daemon.get().refsAccepted(), accepted)
            << "stream reset moved the daemon's total";

        client.setChainCycle(0);
        accepted += client.feedAll(raw, /*batch=*/256).accepted;
        EXPECT_EQ(daemon.get().refsAccepted(), accepted);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    ASSERT_TRUE(client.exec("session resume totals").ok);
    EXPECT_EQ(daemon.get().refsAccepted(), accepted)
        << "session resume moved the daemon's total";
    const auto status = client.exec("server status");
    EXPECT_NE(status.text().find("refs offered 2000 accepted " +
                                 std::to_string(accepted)),
              std::string::npos)
        << status.text();
}

TEST(ServiceLifecycleTest, TwinFleetTracksTheMainBoard)
{
    const auto raw = stream(/*seed=*/15, /*count=*/6'000);

    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, configScript());
    ASSERT_TRUE(client.exec("fleet add shadow 7").ok);

    client.feedAll(raw, /*batch=*/256);
    ASSERT_TRUE(client.exec("drain").ok);

    const auto list = client.exec("fleet list");
    ASSERT_TRUE(list.ok);
    EXPECT_NE(list.text().find("'shadow' seed 7 health healthy"),
              std::string::npos)
        << list.text();

    // Same config, same stream: the twin's stats must equal the main
    // board's (that equality is what makes it a valid resync donor).
    const auto main_stats = client.exec("stats");
    const auto twin_stats = client.exec("fleet stats 0");
    ASSERT_TRUE(main_stats.ok);
    ASSERT_TRUE(twin_stats.ok);
    EXPECT_EQ(main_stats.text(), twin_stats.text());
}

TEST(ServiceLifecycleTest, ResumeOfUnknownSessionFailsClosed)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto reply = client.exec("session resume never-saved");
    EXPECT_FALSE(reply.ok);
    // The session is still usable after the failed resume.
    configureSession(client, configScript());
    EXPECT_TRUE(client.exec("session status").ok);
}

} // namespace
} // namespace memories::service
