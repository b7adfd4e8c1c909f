#include "common/cmdline.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace memories
{
namespace
{

/** Run @p cli over "prog" followed by @p args. */
std::string
run(CommandLine &cli, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return cli.parse(static_cast<int>(args.size()), args.data());
}

/** The FatalError message @p cli throws on @p args, or "" if none. */
std::string
failure(CommandLine &cli, std::vector<const char *> args)
{
    try {
        run(cli, std::move(args));
    } catch (const FatalError &err) {
        return err.what();
    }
    return "";
}

struct Targets
{
    std::string out = "default";
    std::uint64_t seeds = 1;
    std::uint32_t every = 4096;
    std::size_t workers = 1;
    double refs = 0;
    bool quiet = false;
    std::string mode;

    CommandLine
    table()
    {
        CommandLine cli("[--out=DIR] [--seeds=N] [--every=N] [--quiet]");
        cli.flag("--out", out)
            .flag("--seeds", seeds)
            .flag("--every", every)
            .flag("--workers", workers, 1)
            .flag("--refs", refs)
            .flag("--quiet", quiet);
        return cli;
    }
};

TEST(CommandLineTest, ReadsEveryKindOfTarget)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(run(cli, {"--out=camp", "--seeds=18446744073709551615",
                        "--every=4294967295", "--workers=3",
                        "--refs=0.05", "--quiet"}),
              "");
    EXPECT_EQ(t.out, "camp");
    EXPECT_EQ(t.seeds, UINT64_MAX);
    EXPECT_EQ(t.every, UINT32_MAX);
    EXPECT_EQ(t.workers, 3u);
    EXPECT_DOUBLE_EQ(t.refs, 0.05);
    EXPECT_TRUE(t.quiet);
}

TEST(CommandLineTest, AbsentFlagsKeepTheirDefaults)
{
    Targets t;
    CommandLine cli = t.table();
    run(cli, {});
    EXPECT_EQ(t.out, "default");
    EXPECT_EQ(t.seeds, 1u);
    EXPECT_EQ(t.every, 4096u);
    EXPECT_FALSE(t.quiet);
}

TEST(CommandLineTest, RejectsUnknownFlags)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--ref=0.05"}), "unknown option '--ref'");
    EXPECT_EQ(failure(cli, {"-x"}), "unknown option '-x'");
    EXPECT_DOUBLE_EQ(t.refs, 0);
}

TEST(CommandLineTest, RejectsAValuedFlagGivenBare)
{
    // "--name value" is one bare flag and one stray positional; the
    // flag is refused first.
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--out", "/tmp/x"}),
              "--out needs a value (--out=...)");
    EXPECT_EQ(failure(cli, {"--seeds"}),
              "--seeds needs a value (--seeds=...)");
}

TEST(CommandLineTest, RejectsEmptyValues)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--out="}), "--out has an empty value");
    EXPECT_EQ(failure(cli, {"--seeds="}), "--seeds has an empty value");
    EXPECT_EQ(t.out, "default");
}

TEST(CommandLineTest, RejectsMalformedNumbers)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--seeds=abc"}),
              "--seeds 'abc' is not a number");
    EXPECT_EQ(failure(cli, {"--seeds=-1"}), "--seeds '-1' is not a number");
    EXPECT_EQ(failure(cli, {"--seeds=+1"}), "--seeds '+1' is not a number");
    EXPECT_EQ(failure(cli, {"--seeds=0x10"}),
              "--seeds '0x10' is not a number");
    EXPECT_EQ(t.seeds, 1u);
}

TEST(CommandLineTest, RangeChecksIntegersAgainstTheirTargetType)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--every=4294967296"}),
              "--every '4294967296' is out of range (max 4294967295)");
    EXPECT_EQ(failure(cli, {"--every=4294967297"}),
              "--every '4294967297' is out of range (max 4294967295)");
    EXPECT_EQ(failure(cli, {"--seeds=18446744073709551616"}),
              "--seeds '18446744073709551616' is out of range (max "
              "18446744073709551615)");
    EXPECT_EQ(failure(cli, {"--workers=0"}),
              "--workers '0' is out of range (min 1)");
    EXPECT_EQ(t.every, 4096u);
    EXPECT_EQ(t.workers, 1u);

    std::uint32_t cpu = 0;
    CommandLine bounded;
    bounded.positional("cpu", cpu, 0, 15);
    EXPECT_EQ(failure(bounded, {"16"}), "cpu '16' is out of range (max 15)");
    run(bounded, {"15"});
    EXPECT_EQ(cpu, 15u);
}

TEST(CommandLineTest, DecimalsArePositiveDigitsWithAnOptionalFraction)
{
    for (const char *good : {"5", "0.5", "0.001", "1000000", "007.50"}) {
        double v = 0;
        CommandLine cli;
        cli.flag("--refs", v);
        const std::string arg = std::string("--refs=") + good;
        run(cli, {arg.c_str()});
        EXPECT_DOUBLE_EQ(v, std::stod(good)) << good;
    }
    for (const char *bad : {"abc", "-1", "+1", ".5", "1.", "1e3", "1.2.3",
                            " 1", "inf", "nan", "0x1"}) {
        double v = 7;
        CommandLine cli;
        cli.flag("--scale", v);
        const std::string arg = std::string("--scale=") + bad;
        EXPECT_EQ(failure(cli, {arg.c_str()}),
                  std::string("--scale '") + bad +
                      "' is not a decimal number");
        EXPECT_DOUBLE_EQ(v, 7);
    }
    for (const char *outside : {"0", "0.000", "1000000.5", "99999999"}) {
        double v = 7;
        CommandLine cli;
        cli.flag("--refs", v);
        const std::string arg = std::string("--refs=") + outside;
        EXPECT_EQ(failure(cli, {arg.c_str()}),
                  std::string("--refs '") + outside +
                      "' is out of range (0 to 1000000)");
    }
}

TEST(CommandLineTest, RejectsASwitchGivenAValue)
{
    Targets t;
    CommandLine cli = t.table();
    EXPECT_EQ(failure(cli, {"--quiet=1"}), "--quiet takes no value");
    EXPECT_EQ(failure(cli, {"--quiet="}), "--quiet takes no value");
    EXPECT_FALSE(t.quiet);
}

TEST(CommandLineTest, PositionalsMustAllBeGivenAndNoMore)
{
    std::string in, out;
    std::uint64_t count = 0;
    CommandLine cli;
    cli.positional("in", in).positional("out", out).positional("count",
                                                               count);
    EXPECT_EQ(failure(cli, {}), "missing <in>");
    EXPECT_EQ(failure(cli, {"a", "b"}), "missing <count>");
    EXPECT_EQ(failure(cli, {"a", "b", "3", "4"}),
              "unexpected argument '4'");
    EXPECT_EQ(failure(cli, {"a", "", "3"}), "out has an empty value");
    EXPECT_EQ(failure(cli, {"a", "b", "x"}), "count 'x' is not a number");
    run(cli, {"a", "b", "3"});
    EXPECT_EQ(in, "a");
    EXPECT_EQ(out, "b");
    EXPECT_EQ(count, 3u);

    CommandLine none;
    EXPECT_EQ(failure(none, {"abc"}), "unexpected argument 'abc'");
}

TEST(CommandLineTest, CommandsSelectTheirOwnTable)
{
    std::string trace, chrome;
    std::uint64_t size = 0;
    unsigned assoc = 0;
    CommandLine cli;
    cli.command("stats").positional("trace", trace);
    cli.command("replay")
        .positional("trace", trace)
        .positional("size", [&](std::string_view text) {
            size = parseByteSize(text);
        })
        .positional("assoc", assoc);
    cli.command("demo").flag("--chrome-trace", chrome);

    EXPECT_EQ(failure(cli, {}), "missing command");
    EXPECT_EQ(failure(cli, {"slice"}), "unknown command 'slice'");
    EXPECT_EQ(failure(cli, {"--chrome-trace=x"}),
              "unknown command '--chrome-trace=x'");
    EXPECT_EQ(failure(cli, {"demo", "--chrome=x"}),
              "unknown option '--chrome'");
    EXPECT_EQ(failure(cli, {"demo", "--chrome-trace", "x"}),
              "--chrome-trace needs a value (--chrome-trace=...)");
    EXPECT_EQ(failure(cli, {"stats", "--chrome-trace=x"}),
              "unknown option '--chrome-trace'");
    EXPECT_EQ(failure(cli, {"replay", "t", "64XB", "4"}),
              "unknown byte-size unit 'XB'");

    EXPECT_EQ(run(cli, {"demo", "--chrome-trace=out.json"}), "demo");
    EXPECT_EQ(chrome, "out.json");
    EXPECT_EQ(run(cli, {"replay", "t.ies", "16MB", "4"}), "replay");
    EXPECT_EQ(trace, "t.ies");
    EXPECT_EQ(size, 16u << 20);
    EXPECT_EQ(assoc, 4u);
}

TEST(CommandLineDeathTest, ParseOrExitPrintsTheReasonAndUsageAndExits2)
{
    std::uint64_t seeds = 1;
    CommandLine cli("[--seeds=N]\n--from-checkpoint=FILE");
    cli.flag("--seeds", seeds);
    const char *argv[] = {"./build/examples/tool", "--seeds=abc"};
    EXPECT_EXIT(cli.parseOrExit(2, argv), ::testing::ExitedWithCode(2),
                "^tool: --seeds 'abc' is not a number\n"
                "usage: tool \\[--seeds=N\\]\n"
                "       tool --from-checkpoint=FILE\n$");
}

} // namespace
} // namespace memories
