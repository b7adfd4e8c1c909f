/**
 * @file
 * Differential-oracle sweep: diff the production MemoriesBoard against
 * the naive RefBoard over many property-generated streams and the full
 * configuration lattice. This is the executable CI runs (and the tool
 * an engineer reaches for after touching src/cache, src/protocol or
 * src/ies): exit status 0 means every comparison agreed bit-for-bit.
 *
 *   oracle_diff [--seeds=N] [--txns=N] [--start-seed=N] [--out=DIR]
 *
 * Every comparison diffs all three production feeds against the
 * reference: serial feedCommitted, feedBatch in 256-tenure chunks, and
 * a live bus with the board as its only snooper.
 *
 * On a divergence the minimized witness stream is written to DIR as a
 * replayable trace (see docs/TESTING.md for the reproduction recipe).
 *
 * Checkpoint-resume mode:
 *
 *   oracle_diff --from-checkpoint=FILE --config=NAME
 *               [--trace=FILE | --txns=N --start-seed=N]
 *
 * Both boards restore the IESCKPT checkpoint first (counters cleared),
 * then diff over the tail stream: either a replayable trace file
 * (typically the witness a lattice run dumped) or one generated
 * stimulus stream. --config names the lattice configuration the
 * checkpoint was taken under; its fingerprint must match.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "memories/memories.hh"

namespace
{

constexpr const char *usage =
    "usage: oracle_diff [--seeds=N] [--txns=N] [--start-seed=N] "
    "[--out=DIR]\n"
    "       oracle_diff --from-checkpoint=FILE --config=NAME "
    "[--trace=FILE | --txns=N --start-seed=N]\n";

/** The value of @p arg when it reads "<name>=<value>", else null. */
const char *
flagValue(const char *arg, const char *name)
{
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0 || arg[len] != '=')
        return nullptr;
    return arg + len + 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace memories;

    std::uint64_t seeds = 100;
    std::uint64_t txns = 800;
    std::uint64_t start_seed = 1;
    std::string out_dir = "oracle-out";
    std::string checkpoint;
    std::string config_name;
    std::string trace_path;
    try {
        for (int i = 1; i < argc; ++i) {
            const char *v = nullptr;
            if ((v = flagValue(argv[i], "--seeds")))
                seeds = parseUnsigned(v, "--seeds");
            else if ((v = flagValue(argv[i], "--txns")))
                txns = parseUnsigned(v, "--txns");
            else if ((v = flagValue(argv[i], "--start-seed")))
                start_seed = parseUnsigned(v, "--start-seed");
            else if ((v = flagValue(argv[i], "--out")))
                out_dir = v;
            else if ((v = flagValue(argv[i], "--from-checkpoint")))
                checkpoint = v;
            else if ((v = flagValue(argv[i], "--config")))
                config_name = v;
            else if ((v = flagValue(argv[i], "--trace")))
                trace_path = v;
            else
                fatal("unknown option '", argv[i], "'");
        }
        if (seeds == 0 || txns == 0)
            fatal("--seeds and --txns must be positive");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "oracle_diff: %s\n%s", e.what(), usage);
        return 2;
    }

    if (!checkpoint.empty()) {
        if (config_name.empty()) {
            std::fprintf(stderr,
                         "oracle_diff: --from-checkpoint needs "
                         "--config=NAME (the lattice configuration the "
                         "checkpoint was taken under)\n");
            return 2;
        }
        const ies::BoardConfig *cfg = nullptr;
        const auto lattice = oracle::latticeConfigs();
        for (const auto &lc : lattice) {
            if (lc.name == config_name)
                cfg = &lc.config;
        }
        if (!cfg) {
            std::fprintf(stderr,
                         "oracle_diff: unknown --config '%s'; known:\n",
                         config_name.c_str());
            for (const auto &lc : lattice)
                std::fprintf(stderr, "  %s\n", lc.name.c_str());
            return 2;
        }
        std::vector<bus::BusTransaction> stream;
        if (!trace_path.empty()) {
            stream = oracle::readTrace(trace_path);
        } else {
            oracle::StimulusParams params;
            params.seed = start_seed;
            params.count = static_cast<std::size_t>(txns);
            params.cpus = 8;
            stream = oracle::StimulusGen(params).generate();
        }
        std::printf("oracle_diff: resuming config %s from %s, "
                    "%zu tail txns (%s)\n",
                    config_name.c_str(), checkpoint.c_str(),
                    stream.size(),
                    trace_path.empty() ? "generated" : trace_path.c_str());
        const oracle::DiffReport report = oracle::diffStreamFromCheckpoint(
            *cfg, checkpoint, stream);
        std::printf("%s", report.describe().c_str());
        if (report.diverged) {
            std::printf("ORACLE_DIFF FAILED: resumed comparison "
                        "diverged\n");
            return 1;
        }
        std::printf("ORACLE_DIFF ok: 1 resumed comparison, "
                    "0 divergences\n");
        return 0;
    }

    const auto lattice = oracle::latticeConfigs();
    std::printf("oracle_diff: %llu seeds x %zu configs, %llu txns each "
                "(start seed %llu; serial, batch and bus legs)\n",
                static_cast<unsigned long long>(seeds), lattice.size(),
                static_cast<unsigned long long>(txns),
                static_cast<unsigned long long>(start_seed));
    for (const auto &lc : lattice)
        std::printf("  config %s\n", lc.name.c_str());

    const oracle::LatticeRun run = oracle::runLattice(
        start_seed, static_cast<std::size_t>(seeds),
        static_cast<std::size_t>(txns), out_dir);

    if (!run.clean()) {
        for (const auto &div : run.divergences) {
            std::printf("\n=== divergence: config %s, seed %llu "
                        "(shrunk to %zu txns) ===\n",
                        div.configName.c_str(),
                        static_cast<unsigned long long>(div.seed),
                        div.shrunk.size());
            std::printf("%s", div.report.describe().c_str());
            if (!div.tracePath.empty())
                std::printf("replayable witness: %s\n",
                            div.tracePath.c_str());
        }
        std::printf("\nORACLE_DIFF FAILED: %zu of %zu comparisons "
                    "diverged\n",
                    run.divergences.size(), run.comparisons);
        return 1;
    }

    std::printf("ORACLE_DIFF ok: %zu comparisons, 0 divergences\n",
                run.comparisons);
    return 0;
}
