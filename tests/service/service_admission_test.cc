/**
 * @file
 * Admission-control tier: paced sessions admit every feed line up to
 * the board's admission walk, each record at its own cycle. An in-rate
 * line lands whole, however long; an over-rate client is
 * back-pressured — credits exhaust, the daemon clamps or refuses the
 * line, feedAll stops at the first refusal, nothing is dropped,
 * lost_inflight stays 0 — while a concurrent in-rate session is
 * entirely unaffected (its board stays byte-identical to its solo
 * golden run). A feed line is validated in full before anything is
 * admitted, whatever its whitespace.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include <thread>

#include "service/session.hh"
#include "trace/record.hh"

namespace memories::service
{
namespace
{

using namespace testing;

std::vector<std::string>
tinyBufferScript()
{
    return {
        "node 0 cache 2MB 4 128B LRU",
        "node 0 cpus 0,1,2,3",
        "buffer 4",
        "throughput 42",
        "init",
    };
}

/** Reads by CPU 0 at the given cycles, one line apart. */
std::vector<bus::BusTransaction>
recordsAt(const std::vector<Cycle> &cycles)
{
    std::vector<bus::BusTransaction> txns;
    std::uint64_t addr = 0x10000;
    for (const Cycle c : cycles) {
        bus::BusTransaction txn;
        txn.addr = addr += 128;
        txn.cycle = c;
        txn.op = bus::BusOp::Read;
        txn.cpu = 0;
        txns.push_back(txn);
    }
    return txns;
}

/** One feed line of records at the given cycles, chained from prev. */
std::string
feedLine(const std::vector<Cycle> &cycles, Cycle &prev)
{
    std::string line = "feed";
    for (const bus::BusTransaction &txn : recordsAt(cycles)) {
        line += ' ';
        line += encodeRecordHex(trace::BusRecord::pack(txn, prev).raw);
        prev = txn.cycle;
    }
    return line;
}

TEST(ServiceAdmissionTest, CreditsExhaustThenRecoverWithoutDrops)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, tinyBufferScript());

    Cycle prev = 0;
    // Fill the 4-slot buffer with a same-cycle burst: all admitted.
    auto reply = client.exec(feedLine({0, 0, 0, 0}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 4 accepted 4 of 4");

    // Buffer full, no credits earned at cycle 0: the walk refuses the
    // line outright. Nothing was pushed, so nothing can be dropped.
    reply = client.exec(feedLine({0}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 0 accepted 0 of 1");

    // 240 cycles at 42% bank enough credit to retire the backlog; the
    // re-sent record is admitted on the next offer.
    reply = client.exec(feedLine({240}, prev));
    ASSERT_TRUE(reply.ok);
    EXPECT_EQ(reply.lines[0], "fed 1 accepted 1 of 1");

    const auto status = client.exec("stream status");
    ASSERT_TRUE(status.ok);
    EXPECT_NE(status.text().find("offered 6 attempted 5 accepted 5"),
              std::string::npos)
        << status.text();
    EXPECT_NE(status.text().find(
                  "backpressure 1 overflow-drops 0 feed-lines 3"),
              std::string::npos)
        << status.text();

    // The board-side invariant behind "back-pressured, never dropped".
    const auto stats = client.exec("stats");
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.text().find("lost-inflight 0"), std::string::npos)
        << stats.text();
}

TEST(ServiceAdmissionTest, InRateLineLongerThanTheBufferLandsWhole)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, tinyBufferScript());

    // Ten cycles at 42% earn four retirements, so each record finds the
    // previous one gone: every record is admitted at its own cycle,
    // though the line holds four buffers' worth.
    std::vector<Cycle> cycles;
    for (Cycle c = 10; c <= 160; c += 10)
        cycles.push_back(c);
    Cycle prev = 0;
    EXPECT_EQ(client.exec(feedLine(cycles, prev)).text(),
              "fed 16 accepted 16 of 16");
    EXPECT_NE(client.exec("stream status")
                  .text()
                  .find("backpressure 0 overflow-drops 0 feed-lines 1"),
              std::string::npos);
}

TEST(ServiceAdmissionTest, FeedAllStopsAtTheFirstRefusedLine)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, tinyBufferScript());

    // Six records at cycle 1 into four slots with 42 credits banked:
    // the fifth can never be admitted at its own cycle, and only this
    // client moves the session's board, so re-sending it is futile.
    std::vector<Cycle> cycles(6, 1);
    for (Cycle c = 11; cycles.size() < 16; c += 10)
        cycles.push_back(c);
    const FeedTotals totals = client.feedAll(recordsAt(cycles));
    EXPECT_EQ(totals.offered, 16u);
    EXPECT_EQ(totals.accepted, 4u);
    EXPECT_EQ(totals.feedLines, 2u); // fed 4 of 16, then fed 0 of 12
    EXPECT_EQ(totals.resends, 1u);

    const std::string status = client.exec("stream status").text();
    EXPECT_NE(status.find("offered 28 attempted 4 accepted 4"),
              std::string::npos)
        << status;
    EXPECT_NE(status.find("backpressure 1 overflow-drops 0 feed-lines 2"),
              std::string::npos)
        << status;
}

TEST(ServiceAdmissionTest, BadTokenAfterTheAdmittedPrefixRejectsTheLine)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));
    configureSession(client, tinyBufferScript());

    Cycle prev = 0;
    ASSERT_EQ(client.exec(feedLine({0, 0}, prev)).text(),
              "fed 2 accepted 2 of 2");
    const std::string status = client.exec("stream status").text();
    const std::string counters = client.exec("counters").text();

    // Two of the four slots are free, so admission would stop after
    // two records; the bad word sits past that prefix.
    Cycle next = prev;
    const std::string good = feedLine({0, 0, 0}, next);
    const Reply reply = client.exec(good + " 0123456789ABCDEF");
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.text(), "error: bad record token '0123456789ABCDEF' "
                            "(want 16 lower-case hex digits)");
    EXPECT_EQ(client.exec("stream status").text(), status);
    EXPECT_EQ(client.exec("counters").text(), counters);

    // The session chain did not move: the clean line lands as usual.
    EXPECT_EQ(client.exec(good).text(), "fed 2 accepted 2 of 3");
}

TEST(ServiceAdmissionTest, BatchLimitIsReportedBeforeABadToken)
{
    SessionOptions options;
    options.stateDir = uniquePath("iesserv-admission-state");
    options.maxBatch = 4;
    Session session(options, "t0");
    for (const std::string &line : tinyBufferScript())
        ASSERT_EQ(session.execute(line).rfind("error:", 0),
                  std::string::npos)
            << line;

    Cycle prev = 0;
    const std::string five = feedLine({0, 0, 0, 0, 0}, prev);
    // "feed" and the first k of the five " <hex16>" words.
    const auto firstWords = [&](std::size_t k) {
        return five.substr(0, 4 + 17 * k);
    };
    const std::string bad = " zzzzzzzzzzzzzzzz";
    const std::string limit =
        "error: feed of 5 records exceeds the session batch limit 4";
    // Five words with a bad one, first or past the limit: the limit.
    EXPECT_EQ(session.execute("feed" + bad + five.substr(4 + 17)), limit);
    EXPECT_EQ(session.execute(firstWords(4) + bad), limit);
    // Within the limit the bad word itself is the error.
    EXPECT_EQ(session.execute(firstWords(3) + bad),
              "error: bad record token 'zzzzzzzzzzzzzzzz' "
              "(want 16 lower-case hex digits)");
    EXPECT_NE(session.execute("stream status").find("feed-lines 0"),
              std::string::npos);
}

TEST(ServiceAdmissionTest, RecordNamingNoBusCommandRejectsTheLine)
{
    // Bits 48..51 of a record name the command; 13, 14 and 15 name
    // none. The trace reader refuses such a record, and so does feed:
    // the whole line, before any record is counted or admitted.
    SessionOptions options;
    options.stateDir = uniquePath("iesserv-admission-state");
    Session session(options, "t0");
    for (const std::string &line : tinyBufferScript())
        ASSERT_EQ(session.execute(line).rfind("error:", 0),
                  std::string::npos)
            << line;
    const std::string counters = session.execute("counters");

    Cycle prev = 0;
    const std::string good = feedLine({0, 0}, prev);
    for (const char *bad : {"010f000000000100", "000d000000000100"}) {
        EXPECT_EQ(session.execute(good + " " + bad),
                  std::string("error: bad record token '") + bad +
                      "' (its command field names no bus command)");
    }
    EXPECT_EQ(session.execute("counters"), counters);
    EXPECT_NE(session.execute("stream status").find("feed-lines 0"),
              std::string::npos);
    EXPECT_EQ(session.execute(good), "fed 2 accepted 2 of 2");
}

TEST(ServiceAdmissionTest, TabAndCrLfSeparatedLinesMatchSingleSpaced)
{
    TestDaemon daemon;
    ServiceClient spaced, mixed;
    ASSERT_TRUE(spaced.connect(daemon.socket()));
    ASSERT_TRUE(mixed.connect(daemon.socket()));
    configureSession(spaced, tinyBufferScript());
    configureSession(mixed, tinyBufferScript());

    Cycle prev = 0;
    for (const auto &cycles : std::vector<std::vector<Cycle>>{
             {0, 0, 0}, {0, 0}, {240, 240, 241}, {500}}) {
        const std::string line = feedLine(cycles, prev);
        std::string tabbed = "\t";
        for (const char c : line)
            tabbed += c == ' ' ? std::string(" \t") : std::string(1, c);
        const std::string want = spaced.exec(line).text();
        // exec() appends the '\n', so this line ends in "\r\n".
        EXPECT_EQ(mixed.exec(tabbed + "\r").text(), want) << tabbed;
    }
    EXPECT_EQ(mixed.exec("stream status").text(),
              spaced.exec("stream status").text());
    EXPECT_EQ(mixed.exec("counters").text(), spaced.exec("counters").text());
}

TEST(ServiceAdmissionTest, OverRateClientDoesNotPerturbInRatePeer)
{
    // Session A: a 12-entry buffer and a stream that ends in a
    // same-cycle burst of 64, more than its 12 slots plus at most 12
    // banked retirements can take: A is over-rate at that point.
    auto overrate = stream(/*seed=*/21, /*count=*/8'000);
    const std::size_t steady = overrate.size();
    for (int i = 0; i < 64; ++i) {
        bus::BusTransaction txn = overrate.back();
        txn.addr += 128;
        txn.cycle = overrate[steady - 1].cycle + 1;
        txn.op = bus::BusOp::Read;
        overrate.push_back(txn);
    }
    const auto inrate = stream(/*seed=*/22, /*count=*/8'000);
    const auto golden = goldenRun(configScript(), canonical(inrate));

    TestDaemon daemon;

    auto tight = configScript();
    tight[4] = "buffer 12";
    ServiceClient a;
    ASSERT_TRUE(a.connect(daemon.socket()));
    configureSession(a, tight);

    // Session B: the standard in-rate configuration.
    ServiceClient b;
    ASSERT_TRUE(b.connect(daemon.socket()));
    configureSession(b, configScript());

    // Short lines from A, so its requests interleave with B's.
    FeedTotals ta, tb;
    std::thread feedA([&] { ta = a.feedAll(overrate, /*batch=*/64); });
    std::thread feedB([&] { tb = b.feedAll(inrate, /*batch=*/256); });
    feedA.join();
    feedB.join();

    // A landed its steady part, was back-pressured inside the burst,
    // and feedAll returned at the first refused line. Nothing was
    // dropped.
    EXPECT_GE(ta.accepted, steady);
    EXPECT_LT(ta.accepted, ta.offered);
    EXPECT_EQ(ta.resends, 1u);
    const auto status = a.exec("stream status");
    ASSERT_TRUE(status.ok);
    EXPECT_NE(status.text().find("backpressure 1 overflow-drops 0"),
              std::string::npos)
        << status.text();
    const auto stats = a.exec("stats");
    ASSERT_TRUE(stats.ok);
    EXPECT_NE(stats.text().find("lost-inflight 0"), std::string::npos);

    // B never noticed: byte-identical to its solo golden run.
    EXPECT_EQ(tb.accepted, tb.offered);
    ASSERT_TRUE(b.exec("drain").ok);
    sessionSignature(b).expectEqual(golden, "in-rate peer");
}

} // namespace
} // namespace memories::service
