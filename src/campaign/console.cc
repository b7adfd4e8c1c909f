#include "campaign/console.hh"

#include <limits>
#include <string>
#include <vector>

#include "campaign/runner.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "oracle/diff.hh"

namespace memories::campaign
{

namespace
{

std::string
handleCampaign(ies::Console &, std::string_view line)
{
    const std::vector<std::string> tokens = ies::splitWords(line);
    if (tokens.size() < 2)
        fatal("usage: campaign <start|resume|status> <dir> ...");
    const std::string &sub = tokens[1];
    if (sub == "start") {
        if (tokens.size() < 5 || tokens.size() > 6)
            fatal("usage: campaign start <dir> <seeds> <txns> "
                  "[every]");
        const std::string &dir = tokens[2];
        const std::uint64_t seeds = parseUnsigned(tokens[3], "seed count");
        const std::uint64_t txns = parseUnsigned(tokens[4], "txn count");
        const std::uint64_t every =
            tokens.size() == 6
                ? parseUnsigned(tokens[5], "cadence",
                                std::numeric_limits<std::uint32_t>::max())
                : std::min<std::uint64_t>(txns, 4096);
        const CampaignPlan plan =
            buildPlan(oracle::latticeConfigs(), 1, seeds, txns,
                      static_cast<std::uint32_t>(every));
        ckpt::ensureDir(dir);
        CampaignRunner runner(oracle::latticeConfigs(), dir);
        const CampaignTotals totals = runner.start(plan);
        return "campaign complete: " + totals.describe();
    }
    if (sub == "resume") {
        if (tokens.size() != 3)
            fatal("usage: campaign resume <dir>");
        CampaignRunner runner(oracle::latticeConfigs(), tokens[2]);
        const CampaignTotals totals = runner.resume();
        return "campaign complete: " + totals.describe();
    }
    if (sub == "status") {
        if (tokens.size() != 3)
            fatal("usage: campaign status <dir>");
        return CampaignRunner::status(tokens[2]);
    }
    fatal("unknown campaign subcommand '", sub, "'");
}

} // namespace

void
registerConsoleCommands(ies::Console &console)
{
    console.registerCommand("campaign", handleCampaign);
}

} // namespace memories::campaign
