/**
 * @file
 * Differential-oracle sweep: diff the production MemoriesBoard against
 * the naive RefBoard over many property-generated streams and the full
 * configuration lattice. This is the executable CI runs (and the tool
 * an engineer reaches for after touching src/cache, src/protocol or
 * src/ies): exit status 0 means every comparison agreed bit-for-bit,
 * 1 a divergence, 2 a malformed, unknown or zero argument or an
 * unknown --config name.
 *
 *   oracle_diff [--seeds=N] [--txns=N] [--start-seed=N] [--out=DIR]
 *
 * Every comparison diffs all three production feeds against the
 * reference: serial feedCommitted, feedBatch in 256-tenure chunks, and
 * a live bus with the board as its only snooper. A multi-machine config
 * runs the serial and bus feeds again unrecorded, on machine lanes.
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
#include <string>
#include <string_view>
#include <vector>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;

    std::uint64_t seeds = 100;
    std::uint64_t txns = 800;
    std::uint64_t start_seed = 1;
    std::string out_dir = "oracle-out";
    std::string checkpoint;
    std::string trace_path;
    const auto lattice = oracle::latticeConfigs();
    const oracle::LatticeConfig *config = nullptr;
    CommandLine cli("[--seeds=N] [--txns=N] [--start-seed=N] [--out=DIR]\n"
                    "--from-checkpoint=FILE --config=NAME "
                    "[--trace=FILE | --txns=N --start-seed=N]");
    cli.flag("--seeds", seeds, 1)
        .flag("--txns", txns, 1)
        .flag("--start-seed", start_seed)
        .flag("--out", out_dir)
        .flag("--from-checkpoint", checkpoint)
        .flag("--config",
              [&](std::string_view name) {
                  for (const auto &lc : lattice)
                      config = lc.name == name ? &lc : config;
                  if (config == nullptr)
                      fatal("unknown config '", name,
                            "' (see oracle::latticeConfigs)");
              })
        .flag("--trace", trace_path)
        .parseOrExit(argc, argv);

    if (!checkpoint.empty()) {
        if (config == nullptr)
            cli.fail("--from-checkpoint needs --config=NAME (the lattice "
                     "configuration the checkpoint was taken under)");
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
                    config->name.c_str(), checkpoint.c_str(),
                    stream.size(),
                    trace_path.empty() ? "generated" : trace_path.c_str());
        const oracle::DiffReport report = oracle::diffStreamFromCheckpoint(
            config->config, checkpoint, stream);
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

    std::printf("oracle_diff: %llu seeds x %zu configs, %llu txns each "
                "(start seed %llu; serial, batch and bus legs, plus\n"
                "serial and bus lane legs on multi-machine configs)\n",
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

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
