/**
 * @file
 * Wire-protocol fuzz: the console fuzz corpus (and seeded token soup
 * spiked with the service families) fired at a live daemon over a
 * real socket. Every request must come back as a correctly framed
 * reply on a still-usable connection; oversize lines may cost the
 * offender its connection but never the daemon; and after all of it a
 * clean configure-feed-drain session still works.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include <sys/socket.h>

#include "common/random.hh"

namespace memories::service
{
namespace
{

using namespace testing;

TEST(ServiceProtocolFuzzTest, GarbageRequestsAlwaysGetFramedReplies)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));

    // The console fuzz corpus, plus service-grammar abuse the
    // in-process tier cannot express (feed framing, session/server
    // misuse, hex garbage).
    const std::string garbage[] = {
        "",
        "   ",
        "node",
        "node x cache",
        "node 0 cache huge 4 128B",
        "node 99999999 cache 2MB 4 128B",
        "node 0 cpus",
        "node 0 cpus ,,,",
        "buffer",
        "buffer -1",
        "throughput 0",
        "capture",
        "init init init",
        "stats now please",
        "dump-trace",
        "save-state",
        "load-state /definitely/not/there",
        "ckpt",
        "ckpt save",
        "ckpt frobnicate state.ckpt",
        "script",
        "\t\tnode\t0",
        "unknown-command with args",
        "fault arm not-a-seed",
        "health mystery-knob 7",
        "prof start not-a-count",
        "campaign start somedir notanumber 500",
        // Service-family abuse.
        "feed",
        "feed zzzz",
        "feed 0123",
        "feed 0123456789abcdeg",
        "feed 0123456789ABCDEF", // upper case is rejected
        "feed 0123456789abcdef extra-garbage",
        "feed 010f000000000100", // command 15 names no bus command
        // Shapes the in-place feed parser hands to the word parser.
        "feed\t0a00000000000200\t0a10000000000201",
        "feed 0a00000000000200\r0a10000000000201\r",
        "feed\v0a00000000000200\f0a10000000000201",
        "feed   0a00000000000200  0a10000000000201   ",
        "  \tfeed 0a00000000000200 \t",
        "feed 0a000000\t0000200 0a10000000000201",
        "feed 0a0000000000020 0a10000000000201",
        "feed 0a00000000000200 0a100000000002010",
        "feed 0A30000000abcdef",
        "feed 0a0d000000000200 0a00000000000200",
        "feed 0a00000000000200 0a0e000000000201 0a10000000000201",
        "feed 0a00000000000200 0a0f000000000202",
        "drain now",
        "stream",
        "stream pace sideways",
        "stream replay /definitely/not/there.ies",
        "stream replay /dev/zero",
        "stream frobnicate",
        "fleet add a b c d",
        "fleet counters 99",
        "fleet resync",
        // Digits-only but > uint64: must come back as a framed error,
        // never as a std::out_of_range escaping the serve thread.
        "fleet counters 99999999999999999999999",
        "fleet stats 99999999999999999999999",
        "fleet add twin 99999999999999999999999",
        "buffer 99999999999999999999999",
        "throughput 99999999999999999999999",
        "prof start 99999999999999999999999",
        "node 0 cache 18446744073711648768 4 128B",
        "node 0 cache 17592186044418MB 4 128B",
        "node 0 cpus 256,257",
        "throughput 4294967338",
        "health degrade-window 4294967297",
        "campaign start d 99999999999999999999999 1 1",
        // Ring sizes whose power-of-two rounding overflowed: they
        // pinned the serve thread forever.
        "trace start 9223372036854775809",
        "trace start 18446744073709551615",
        "session",
        "session name",
        "session name ../escape",
        "session name " + std::string(100, 'x'),
        "session suspend", // no board yet: fails, stays connected
        "session resume",
        "session resume /definitely/not/there",
        "session frobnicate",
        "server evict",
        "server evict nobody",
        "server frobnicate",
    };
    for (const auto &cmd : garbage) {
        const Reply reply = client.exec(cmd);
        ASSERT_TRUE(client.connected())
            << "connection died on: " << cmd;
        // Framed err or ok — a transport failure would have reported
        // a "transport:" line and dropped the connection above.
        if (!reply.ok) {
            EXPECT_FALSE(reply.lines.empty()) << "cmd: " << cmd;
        }
        EXPECT_NE(reply.text().rfind("error: internal:", 0), 0u)
            << "cmd: " << cmd << " -> " << reply.text();
    }
    EXPECT_TRUE(client.exec("session status").ok);
}

TEST(ServiceProtocolFuzzTest, RandomTokenSoupOverTheSocket)
{
    TestDaemon daemon;
    ServiceClient client;
    ASSERT_TRUE(client.connect(daemon.socket()));

    Rng rng(77);
    const char *words[] = {
        "node",   "0",       "cache",  "2MB",    "4",
        "128B",   "cpus",    "init",   "stats",  "LRU",
        "->",     "*",       "0x10",   "-5",     "reset",
        "fault",  "health",  "arm",    "load",   "on",
        "ckpt",   "info",    "prof",   "start",  "dump",
        "feed",   "drain",   "stream", "fleet",  "session",
        "server", "suspend", "resume", "evict",  "pace",
        "status", "add",     "off",    "replay", "0123456789abcdef",
    };
    for (int i = 0; i < 400; ++i) {
        std::string cmd;
        const auto len = 1 + rng.nextBounded(6);
        for (std::uint64_t w = 0; w < len; ++w) {
            cmd += words[rng.nextBounded(std::size(words))];
            cmd += ' ';
        }
        client.exec(cmd);
        ASSERT_TRUE(client.connected())
            << "connection died on: " << cmd;
    }
    // The daemon survived and the session is still coherent.
    EXPECT_TRUE(client.exec("server status").ok);
}

TEST(ServiceProtocolFuzzTest, OutOfRangeReplyCountIsGarbageFraming)
{
    // A frame head whose count token is digits-only but > uint64 is
    // garbage framing: readReply must return nullopt (its documented
    // contract), not throw std::out_of_range at the caller.
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel reader(fds[0]);
    LineChannel writer(fds[1]);
    ASSERT_TRUE(writer.writeAll("ok 99999999999999999999999\n"));
    writer.shutdownBoth();
    EXPECT_FALSE(reader.readReply().has_value());
}

TEST(ServiceProtocolFuzzTest, OversizeLineCostsTheConnectionNotTheDaemon)
{
    TestDaemon daemon;
    ServiceClient hog;
    ASSERT_TRUE(hog.connect(daemon.socket()));

    // Over the 1 MiB line bound: the daemon refuses to buffer it and
    // hangs up on the offender.
    const std::string huge = "feed " + std::string(2 * maxLineBytes, 'a');
    const Reply reply = hog.exec(huge);
    EXPECT_FALSE(reply.ok);

    EXPECT_TRUE(waitFor(
        [&] { return daemon.get().sessionsActive() == 0; }));

    // Everyone else is fine.
    ServiceClient after;
    ASSERT_TRUE(after.connect(daemon.socket()));
    configureSession(after, configScript());
    EXPECT_TRUE(after.exec("stats").ok);
}

} // namespace
} // namespace memories::service
