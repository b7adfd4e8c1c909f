/**
 * @file
 * Console robustness: arbitrary command strings must come back as
 * error text, never as crashes or exceptions escaping execute().
 */

#include "ies/console.hh"

#include <gtest/gtest.h>

#include "campaign/console.hh"
#include "common/random.hh"

namespace memories::ies
{
namespace
{

TEST(ConsoleFuzzTest, GarbageCommandsNeverEscape)
{
    bus::Bus6xx bus;
    Console console(bus);
    campaign::registerConsoleCommands(console);

    const char *garbage[] = {
        "",
        "   ",
        "node",
        "node x cache",
        "node 0 cache huge 4 128B",
        "node 99999999 cache 2MB 4 128B",
        "node 0 cpus",
        "node 0 cpus ,,,",
        "node 0 protocol",
        "node 0 protocol-file",
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
        "ckpt save /no/such/dir/state.ckpt",
        "ckpt load /definitely/not/there.ckpt",
        "ckpt info /definitely/not/there.ckpt",
        "ckpt info",
        "ckpt frobnicate state.ckpt",
        "script",
        "export-csv",
        "\t\tnode\t0",
        "unknown-command with args",
        "fault",
        "fault load",
        "fault load /definitely/not/there.plan",
        "fault arm",
        "fault arm not-a-seed",
        "fault arm 1 2 3",
        "fault status extra",
        "fault disarm",
        "fault gremlins",
        "health on off",
        "health degrade-window",
        "health degrade-window banana",
        "health sampling-shift -1",
        "health quarantine-storms 0 0",
        "health mystery-knob 7",
        "prof",
        "prof start",
        "prof start not-a-count",
        "prof start 0",
        "prof show extra-token",
        "prof dump",
        "prof dump /no/such/dir/stacks.folded",
        "prof chrome",
        "prof chrome /no/such/dir/trace.json",
        "prof stop stop stop",
        "prof frobnicate",
        "campaign",
        "campaign start",
        "campaign start somedir notanumber 500",
        "campaign resume /definitely/not/there",
        "campaign status /definitely/not/there",
        "campaign status",
        "campaign frobnicate x",
        // Numbers that overflow their field.
        "node 0 cache 18446744073711648768 4 128B",
        "node 0 cache 17592186044418MB 4 128B",
        "node 0 cpus 256,257",
        "throughput 4294967338",
        "health degrade-window 4294967297",
        "campaign start d 99999999999999999999999 1 1",
    };
    for (const char *cmd : garbage) {
        std::string reply;
        EXPECT_NO_THROW(reply = console.execute(cmd)) << "command: " << cmd;
        EXPECT_NE(reply.rfind("error: internal:", 0), 0u)
            << "command: " << cmd << " -> " << reply;
    }
}

TEST(ConsoleFuzzTest, RandomTokenSoupIsHandled)
{
    bus::Bus6xx bus;
    Console console(bus);
    Rng rng(31);
    const char *words[] = {"node",  "0",      "cache", "2MB",   "4",
                           "128B",  "cpus",   "init",  "stats", "LRU",
                           "->",    "*",      "0x10",  "-5",    "reset",
                           "fault", "health", "arm",   "load",  "on",
                           "ckpt",  "info",   "prof",  "start", "dump"};
    for (int i = 0; i < 500; ++i) {
        std::string cmd;
        const auto len = 1 + rng.nextBounded(6);
        for (std::uint64_t w = 0; w < len; ++w) {
            cmd += words[rng.nextBounded(std::size(words))];
            cmd += ' ';
        }
        EXPECT_NO_THROW(console.execute(cmd)) << "command: " << cmd;
    }
}

TEST(ConsoleFuzzTest, ValidSessionStillWorksAfterFuzzing)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("buffer garbage");
    console.execute("node 0 cache banana");
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    EXPECT_NE(console.execute("init").find("initialized"),
              std::string::npos);
}

} // namespace
} // namespace memories::ies
