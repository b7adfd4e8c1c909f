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

#include <algorithm>
#include <filesystem>
#include <set>

#include "servicetest.hh"

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "service/session.hh"
#include "trace/capture.hh"

namespace memories::service
{
namespace
{

using namespace testing;

/** The files in @p dir whose names start with "<name>.". */
std::set<std::string>
sessionFiles(const std::string &dir, const std::string &name)
{
    std::set<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir)) {
        const std::string file = entry.path().filename().string();
        if (file.rfind(name + ".", 0) == 0)
            files.insert(file);
    }
    return files;
}

/** What `session resume` must bring back: the stream scalars, the
 *  counters and the board's IESCKPT bytes. */
struct ResumePoint
{
    std::string stream;
    std::string counters;
    std::string ckptBytes;

    bool operator==(const ResumePoint &) const = default;
};

ResumePoint
resumePoint(ServiceClient &client)
{
    ResumePoint point;
    point.stream = client.exec("stream status").text();
    const RunSignature sig = sessionSignature(client);
    point.counters = sig.counters;
    point.ckptBytes = sig.ckptBytes;
    return point;
}

/**
 * Fails the @p at-th atomic write after installation with ENOSPC,
 * before a byte lands, and lets every other write through.
 */
class NoSpaceAt final : public ckpt::DiskFaultShim
{
  public:
    explicit NoSpaceAt(std::size_t at) : at_(at) {}

    ckpt::DiskFault onAtomicWrite(const std::string &) override
    {
        return {seen_++ == at_ ? ckpt::DiskFaultKind::NoSpace
                               : ckpt::DiskFaultKind::None,
                0};
    }

    bool fired() const { return seen_ > at_; }

  private:
    std::size_t at_;
    std::size_t seen_ = 0;
};

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

TEST(ServiceLifecycleTest, StreamReplayMatchesChunkedFeedBatch)
{
    // A bursty stream against a small buffer, so the replay drops
    // references and its reply counts say something.
    oracle::StimulusParams p;
    p.seed = 21;
    p.count = 5'000;
    p.pBurst = 0.9;
    p.maxGap = 2;
    const auto raw = oracle::StimulusGen(p).generate();
    auto script = configScript();
    script[4] = "buffer 8"; // replaces "buffer 64"

    const std::string path = uniquePath("iesserv-replay") + ".trace";
    trace::CaptureBuffer capture(raw.size());
    for (const auto &txn : raw)
        capture.record(txn);
    capture.dumpToFile(path);

    // The reference: an in-process board fed the captured stream
    // through feedBatch in session-batch-sized chunks (the last one
    // short).
    constexpr std::size_t maxBatch = 256;
    const auto canon = canonical(raw);
    bus::Bus6xx bus;
    ies::Console golden(bus);
    for (const auto &line : script)
        ASSERT_EQ(golden.execute(line).rfind("error:", 0), std::string::npos)
            << line;
    std::size_t accepted = 0;
    for (std::size_t at = 0; at < canon.size(); at += maxBatch) {
        accepted += golden.board()->feedBatch(
            canon.data() + at, std::min(maxBatch, canon.size() - at));
    }
    golden.board()->drainAll();
    ASSERT_LT(accepted, canon.size()) << "expected overflow drops";
    RunSignature want;
    want.counters = golden.execute("counters");
    want.stats = golden.execute("stats");
    const std::string saved = uniquePath("iesserv-replay") + ".ckpt";
    golden.execute("save-state " + saved);
    want.ckptBytes = readFileBytes(saved);

    SessionOptions options;
    options.stateDir = uniquePath("iesserv-replay-state");
    options.maxBatch = maxBatch;
    Session session(options, "replayed");
    for (const auto &line : script)
        ASSERT_EQ(session.execute(line).rfind("error:", 0),
                  std::string::npos)
            << line;
    ASSERT_EQ(session.execute("fleet add shadow"),
              "fleet board 0 'shadow' added");
    EXPECT_EQ(session.execute("stream replay /dev/zero").rfind("error: ", 0),
              0u);
    EXPECT_EQ(session.execute("stream replay " + path),
              "replayed " + std::to_string(canon.size()) + " accepted " +
                  std::to_string(accepted) + " dropped " +
                  std::to_string(canon.size() - accepted));
    ASSERT_EQ(session.execute("drain").rfind("error:", 0),
              std::string::npos);

    RunSignature got;
    got.counters = session.execute("counters");
    got.stats = session.execute("stats");
    session.execute("save-state " + saved);
    got.ckptBytes = readFileBytes(saved);
    got.expectEqual(want, "replayed session");

    // The twin saw the same attempts: the suspended file carries its
    // own container, byte for byte the reference board's.
    EXPECT_EQ(session.execute("fleet stats 0"), want.stats);
    EXPECT_EQ(session.execute("fleet counters 0"), want.counters);
    ASSERT_EQ(session.execute("session suspend").rfind("error:", 0),
              std::string::npos);
    const auto image = ckpt::CheckpointImage::fromFile(
        Session::statePath(options.stateDir, "replayed"));
    std::string twin(image.sectionLength(ckpt::secTwinBase), '\0');
    image.open(ckpt::secTwinBase).raw(twin.data(), twin.size());
    EXPECT_TRUE(twin == want.ckptBytes) << "twin checkpoint bytes differ";

    std::remove(path.c_str());
    std::remove(saved.c_str());
    std::filesystem::remove_all(options.stateDir);
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
        Session::statePath(daemon.options.stateDir, "alpha")));
    EXPECT_EQ(sessionFiles(daemon.options.stateDir, "alpha"),
              std::set<std::string>{"alpha.ckpt"});

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
    // A flipped byte anywhere in the suspended file fails its section
    // CRC while the whole file is checked, before the console runs a
    // line: the reply is an error, the session stays fresh, and it
    // configures and feeds as if the resume had never been tried.
    const auto raw = stream(/*seed=*/17, /*count=*/1'000);
    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name tamper").ok);
        client.feedAll(raw, /*batch=*/256);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    const auto path =
        Session::statePath(daemon.options.stateDir, "tamper");
    const std::string good = readFileBytes(path);
    const auto image = ckpt::CheckpointImage::fromBytes(
        {good.begin(), good.end()}, "suspended session");

    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    for (const std::uint32_t id : {std::uint32_t{ckpt::secSession},
                                   std::uint32_t{ckpt::secNodeBase + 1}}) {
        // Payloads run back to back after the table, so a section's
        // offset is the table end plus the lengths before it.
        std::size_t at = 28 + 24 * image.sectionIds().size() + 4;
        for (const std::uint32_t before : image.sectionIds()) {
            if (before == id)
                break;
            at += image.sectionLength(before);
        }
        std::string bad = good;
        bad[at + image.sectionLength(id) / 2] ^= 0x10;
        std::ofstream(path, std::ios::binary) << bad;

        const auto reply = client.exec("session resume tamper");
        EXPECT_FALSE(reply.ok);
        const std::string section = ckpt::sectionName(id);
        EXPECT_NE(reply.text().find("section " + section + " CRC mismatch"),
                  std::string::npos)
            << reply.text();
        const auto status = client.exec("session status");
        EXPECT_NE(status.text().find("state fresh"), std::string::npos)
            << section << ": " << status.text();
    }

    const auto golden = goldenRun(configScript(), canonical(raw));
    configureSession(client, configScript());
    client.feedAll(raw, /*batch=*/256);
    ASSERT_TRUE(client.exec("drain").ok);
    sessionSignature(client).expectEqual(golden, "after failed resumes");
}

TEST(ServiceLifecycleTest, ResumeOfAMismatchedBoardLeavesTheSessionFresh)
{
    // A CRC-valid suspended file whose config lines stage another board
    // than its sections came from fails only when the board loads
    // them. The session must still be left fresh, so the intact file
    // resumes on the same connection and continues to the golden.
    const auto raw = stream(/*seed=*/18, /*count=*/6'000);
    const auto golden = goldenRun(configScript(), canonical(raw));
    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 3'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 3'000,
                                                  raw.end());

    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name alpha").ok);
        ASSERT_EQ(client.feedAll(first, /*batch=*/256).accepted,
                  first.size());
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    const auto path = Session::statePath(daemon.options.stateDir, "alpha");
    const std::string good = readFileBytes(path);

    // Rewrite `buffer 64` as `buffer 65` in the session section and
    // re-seal every CRC by writing the sections into a new container.
    const auto image = ckpt::CheckpointImage::fromBytes(
        {good.begin(), good.end()}, "suspended session");
    ckpt::CheckpointWriter resealed;
    for (const std::uint32_t id : image.sectionIds()) {
        ckpt::Source source = image.open(id);
        std::string payload(source.remaining(), '\0');
        source.raw(payload.data(), payload.size());
        if (id == ckpt::secSession) {
            const std::size_t at = payload.find("buffer 64");
            ASSERT_NE(at, std::string::npos);
            payload[at + 8] = '5';
        }
        resealed.section(id).raw(payload.data(), payload.size());
    }
    resealed.writeFile(path, image.configFingerprint());

    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto failed = client.exec("session resume alpha");
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.text().find("fingerprint"), std::string::npos)
        << failed.text();
    const auto status = client.exec("session status").text();
    EXPECT_NE(status.find("state fresh"), std::string::npos) << status;
    EXPECT_NE(status.find("refs 0"), std::string::npos) << status;

    std::ofstream(path, std::ios::binary) << good;
    const auto resumed = client.exec("session resume alpha");
    ASSERT_TRUE(resumed.ok) << resumed.text();
    client.setChainCycle(first.back().cycle);
    ASSERT_EQ(client.feedAll(second, /*batch=*/256).accepted,
              second.size());
    ASSERT_TRUE(client.exec("drain").ok);
    sessionSignature(client).expectEqual(golden, "resume after a failed one");
}

TEST(ServiceLifecycleTest, FailedSuspendLeavesThePreviousOneWhole)
{
    // Fail each atomic write a second suspend makes, in turn, until
    // one suspend lands: after every failure, resume must bring back
    // the first suspend exactly, never new board state under old
    // stream scalars.
    const auto raw = stream(/*seed=*/19, /*count=*/6'000);
    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 2'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 2'000,
                                                  raw.end());
    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("session name alpha").ok);
        client.feedAll(first, /*batch=*/256);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    ASSERT_TRUE(client.exec("session resume alpha").ok);
    const ResumePoint suspended = resumePoint(client);
    client.setChainCycle(first.back().cycle);
    client.feedAll(second, /*batch=*/256);

    for (std::size_t at = 0;; ++at) {
        NoSpaceAt disk(at);
        ckpt::DiskFaultShim *previous = ckpt::setDiskFaultShim(&disk);
        const auto reply = client.exec("session suspend");
        ckpt::setDiskFaultShim(previous);
        if (!disk.fired()) {
            EXPECT_TRUE(reply.ok) << reply.text();
            break;
        }
        ASSERT_FALSE(reply.ok) << "write " << at << " failed unnoticed";

        ServiceClient other;
        ASSERT_TRUE(other.connect(daemon.socket()));
        const auto resumed = other.exec("session resume alpha");
        ASSERT_TRUE(resumed.ok) << resumed.text();
        EXPECT_TRUE(resumePoint(other) == suspended)
            << "write " << at << " failed, and resume no longer "
            << "restores the first suspend";
    }
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

TEST(ServiceLifecycleTest, SuspendResumeKeepsTheTwinRoster)
{
    const auto raw = stream(/*seed=*/20, /*count=*/6'000);
    const std::vector<bus::BusTransaction> first(raw.begin(),
                                                 raw.begin() + 3'000);
    const std::vector<bus::BusTransaction> second(raw.begin() + 3'000,
                                                  raw.end());
    TestDaemon daemon;
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.socket()));
        configureSession(client, configScript());
        ASSERT_TRUE(client.exec("fleet add shadow 7").ok);
        ASSERT_TRUE(client.exec("session name twinned").ok);
        client.feedAll(first, /*batch=*/256);
        ASSERT_TRUE(client.exec("session suspend").ok);
    }

    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    const auto reply = client.exec("session resume twinned");
    ASSERT_TRUE(reply.ok) << reply.text();
    EXPECT_EQ(chomp(client.exec("fleet list").text()),
              "0 'shadow' seed 7 health healthy");

    client.setChainCycle(first.back().cycle);
    client.feedAll(second, /*batch=*/256);
    ASSERT_TRUE(client.exec("drain").ok);
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
