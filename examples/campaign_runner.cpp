/**
 * @file
 * IESCAMP campaign driver: the paper's "leave the board plugged into a
 * production server for days" usage, as a crash-tolerant CLI.
 *
 * Usage:
 *   campaign_runner start  --out=DIR [options]
 *   campaign_runner resume --out=DIR [options]
 *   campaign_runner status --out=DIR
 *
 * Options (start unless noted):
 *   --configs=a,b,c     lattice config names (default: all 14)
 *   --seeds=N           seeds 1..N, one unit per (config, seed)  [1]
 *   --first-seed=N      first seed                               [1]
 *   --txns=N            references per unit                  [20000]
 *   --every=N           checkpoint cadence in references      [4096]
 *   --workers=N         fleet worker threads (also resume)       [2]
 *   --max-attempts=N    attempts before quarantine               [4]
 *   --deadline-ms=N     watchdog per wave attempt (also resume)  [off]
 *   --disk-faults=SPEC  scripted disk faults (also resume), e.g.
 *                       "enospc@3,bitflip@7:12,crash@9" — see
 *                       campaign/faultshim.hh
 *   --quiet             no progress narration (also resume)
 *
 * Exit status: 0 every unit done; 1 fatal error (corrupt state, a
 * failed write); 2 usage error (a malformed, unknown, out-of-range or
 * missing argument, reported before any file is written); 3 campaign
 * complete but units quarantined.
 *
 * Kill it at any moment — kill -9 included — and `resume` continues
 * from the last durable segment; the final unit*.result files are
 * byte-identical to an uninterrupted run. The CI resilience job does
 * exactly that, twice, and diffs the artifacts.
 */

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <ranges>
#include <string>
#include <string_view>
#include <vector>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

/** The lattice configurations a --configs list names. */
std::vector<oracle::LatticeConfig>
selectConfigs(std::string_view names)
{
    const std::vector<oracle::LatticeConfig> all = oracle::latticeConfigs();
    std::vector<oracle::LatticeConfig> picked;
    for (const auto part : std::views::split(names, ',')) {
        const std::string_view name(part.begin(), part.end());
        const auto it =
            std::find_if(all.begin(), all.end(),
                         [&](const auto &c) { return c.name == name; });
        if (it != all.end())
            picked.push_back(*it);
        else if (!name.empty())
            fatal("unknown config '", name,
                  "' (see oracle::latticeConfigs)");
    }
    if (picked.empty())
        fatal("--configs selected nothing");
    return picked;
}

int
program(int argc, char **argv)
{
    std::string out;
    std::vector<oracle::LatticeConfig> configs = oracle::latticeConfigs();
    std::vector<campaign::ScriptedFault> faults;
    std::size_t seeds = 1;
    std::uint64_t firstSeed = 1, txns = 20000, deadlineMs = 0;
    std::uint32_t every = 4096, workers = 2, maxAttempts = 4;
    bool quiet = false;

    CommandLine cli(
        "start --out=DIR [--configs=a,b,c] [--seeds=N] [--first-seed=N] "
        "[--txns=N] [--every=N] [--max-attempts=N] [--workers=N] "
        "[--deadline-ms=N] [--disk-faults=SPEC] [--quiet]\n"
        "resume --out=DIR [--workers=N] [--deadline-ms=N] "
        "[--disk-faults=SPEC] [--quiet]\n"
        "status --out=DIR");
    const auto resumable = [&](CommandLine &mode) -> CommandLine & {
        return mode.flag("--out", out)
            .flag("--workers", workers)
            .flag("--deadline-ms", deadlineMs)
            .flag("--disk-faults",
                  [&](std::string_view spec) {
                      faults = campaign::parseFaultSpec(std::string(spec));
                  })
            .flag("--quiet", quiet);
    };
    resumable(cli.command("start"))
        .flag("--configs",
              [&](std::string_view names) {
                  configs = selectConfigs(names);
              })
        .flag("--seeds", seeds, 1)
        .flag("--first-seed", firstSeed)
        .flag("--txns", txns, 1)
        .flag("--every", every, 1)
        .flag("--max-attempts", maxAttempts, 1);
    resumable(cli.command("resume"));
    cli.command("status").flag("--out", out);
    const std::string mode = cli.parseOrExit(argc, argv);
    if (out.empty())
        cli.fail("--out=DIR is required");

    if (mode == "status") {
        std::fputs(campaign::CampaignRunner::status(out).c_str(), stdout);
        return 0;
    }

    // The shim outlives every durable write the runner makes.
    std::unique_ptr<campaign::ScriptedDiskFaults> shim;
    if (!faults.empty()) {
        shim = std::make_unique<campaign::ScriptedDiskFaults>(faults);
        ckpt::setDiskFaultShim(shim.get());
    }

    campaign::RunnerOptions opts;
    opts.fleetWorkers = workers;
    opts.attemptDeadlineMs = deadlineMs;
    opts.log = quiet ? nullptr : &std::cout;

    campaign::CampaignRunner runner(configs, out, opts);

    campaign::CampaignTotals totals;
    if (mode == "start") {
        campaign::CampaignPlan plan =
            campaign::buildPlan(configs, firstSeed, seeds, txns, every);
        plan.maxAttempts = maxAttempts;
        plan.fleetWorkers = workers;
        ckpt::ensureDir(out);
        totals = runner.start(plan);
    } else {
        totals = runner.resume();
    }

    std::printf("campaign %s: %s\n",
                totals.allDone() ? "complete" : "complete with losses",
                totals.describe().c_str());
    ckpt::setDiskFaultShim(nullptr);
    return totals.allDone() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
