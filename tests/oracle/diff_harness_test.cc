/**
 * @file
 * DiffHarness tests. Two halves:
 *
 *  - *Agreement*: the production board and the faithful oracle agree
 *    bit-for-bit over generated streams on every lattice config and
 *    every production feed — serial, batch and live bus (a miniature
 *    of the CI sweep, kept small enough for the unit tier).
 *
 *  - *Mutation smoke*: a harness that can only ever pass proves
 *    nothing. Seeding the oracle with a known bug (a skipped PLRU
 *    touch, a dropped snooper downgrade, a flipped protocol-table
 *    entry) must produce a divergence on every leg, and ddmin must
 *    shrink the witness to a handful of transactions — the
 *    paper-trail an engineer actually debugs from.
 */

#include "oracle/diff.hh"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/logging.hh"
#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "protocol/state.hh"
#include "protocol/table.hh"

namespace memories::oracle
{
namespace
{

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count,
       const StimulusParams &base = {})
{
    StimulusParams p = base;
    p.seed = seed;
    p.count = count;
    return StimulusGen(p).generate();
}

/**
 * Few-set geometry for the replacement-policy smoke: 2MiB / (4KiB
 * lines x 4 ways) = 128 sets, so a short stream piles plenty of
 * conflict misses into every set and replacement decisions matter.
 */
ies::BoardConfig
conflictBoard(cache::ReplacementPolicy policy)
{
    return ies::makeUniformBoard(
        1, 8, cache::CacheConfig{2 * MiB, 4, 4096, policy});
}

/** Hot small footprint: frequent hits between the conflict misses. */
StimulusParams
hotParams()
{
    StimulusParams p;
    p.footprintLines = 1 << 13; // 1MiB per CPU: ~16 4KiB lines per set
    p.sharedLines = 256;
    return p;
}

TEST(DiffLatticeTest, LatticeIsBroadAndUniquelyNamed)
{
    const auto lattice = latticeConfigs();
    EXPECT_GE(lattice.size(), 12u);

    std::set<std::string> names;
    std::set<std::string> policies;
    std::set<std::string> protocols;
    bool multi_node = false;
    bool sampled = false;
    for (const auto &lc : lattice) {
        names.insert(lc.name);
        EXPECT_TRUE(lc.config.validationErrors().empty()) << lc.name;
        for (const auto &node : lc.config.nodes) {
            policies.insert(
                cache::replacementPolicyName(node.cache.policy));
            protocols.insert(node.protocol.name());
            sampled |= node.setSamplingShift > 0;
        }
        multi_node |= lc.config.nodes.size() > 1;
    }
    EXPECT_EQ(names.size(), lattice.size()) << "duplicate config names";
    EXPECT_GE(policies.size(), 4u) << "lattice misses a policy";
    EXPECT_GE(protocols.size(), 2u) << "lattice misses a protocol";
    EXPECT_TRUE(multi_node) << "lattice has no coherent multi-node box";
    EXPECT_TRUE(sampled) << "lattice has no set-sampled config";
}

TEST(DiffLatticeTest, SmallSweepIsClean)
{
    // A miniature of the CI acceptance sweep: every lattice config,
    // three seeds, all three feed legs. The 100-seed version runs in
    // CI via oracle_diff.
    const LatticeRun run = runLattice(1, 3, 300);
    EXPECT_EQ(run.comparisons, 3 * latticeConfigs().size());
    for (const auto &div : run.divergences) {
        ADD_FAILURE() << "config " << div.configName << " seed "
                      << div.seed << ":\n"
                      << div.report.describe();
    }
}

/** The legs every comparison runs, in report order. */
const std::vector<std::string> allLegs = {"serial", "batch", "bus"};

/** A MESI table whose clean Read miss installs Shared, not Exclusive. */
ies::BoardConfig
flippedProtocol(const ies::BoardConfig &cfg)
{
    auto flipped = cfg;
    flipped.nodes[0].protocol.setRequester(
        bus::BusOp::Read, protocol::LineState::Invalid,
        protocol::SnoopSummary::None,
        {protocol::LineState::Shared, true});
    return flipped;
}

TEST(DiffHarnessTest, MutationsAreCaughtOnEveryLeg)
{
    // No feed may blunt the harness: each mutation smoke must diverge
    // on the serial, the batch and the live-bus leg alike.
    const auto plru = conflictBoard(cache::ReplacementPolicy::TreePLRU);
    DiffOptions plru_opts;
    plru_opts.mutation = RefMutation::SkipPlruTouchOnHit;
    DiffReport report;
    for (std::uint64_t seed = 1; seed <= 5 && !report.diverged; ++seed)
        report = diffStream(plru, stream(seed, 600, hotParams()),
                            plru_opts);
    EXPECT_EQ(report.divergedLegs, allLegs) << report.describe();

    const auto coherent = ies::makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    DiffOptions downgrade_opts;
    downgrade_opts.mutation = RefMutation::DropSnooperDowngrade;
    StimulusParams shared = hotParams();
    shared.shareFraction = 0.6;
    report = {};
    for (std::uint64_t seed = 1; seed <= 5 && !report.diverged; ++seed)
        report = diffStream(coherent, stream(seed, 600, shared),
                            downgrade_opts);
    EXPECT_EQ(report.divergedLegs, allLegs) << report.describe();

    const auto lru = conflictBoard(cache::ReplacementPolicy::LRU);
    const auto ref_cfg = flippedProtocol(lru);
    DiffOptions flip_opts;
    flip_opts.refConfig = &ref_cfg;
    report = diffStream(lru, stream(31, 400), flip_opts);
    EXPECT_EQ(report.divergedLegs, allLegs) << report.describe();
    EXPECT_EQ(report.summary.rfind("serial leg: ", 0), 0u)
        << report.summary;
}

TEST(DiffHarnessTest, MultiMachineBoardsRunLaneLegs)
{
    // Unrecorded, a board of two target machines emulates them on lane
    // threads, so its serial and bus feeds run a second time that way;
    // the lane legs must agree, and a mutation must diverge there too.
    const auto cfg = ies::makeMultiConfigBoard(
        {cache::CacheConfig{2 * MiB, 4, 4096,
                            cache::ReplacementPolicy::TreePLRU},
         cache::CacheConfig{2 * MiB, 4, 4096,
                            cache::ReplacementPolicy::LRU}},
        8);
    const DiffReport clean = diffStream(cfg, stream(21, 500, hotParams()));
    EXPECT_FALSE(clean.diverged) << clean.describe();

    DiffOptions opts;
    opts.mutation = RefMutation::SkipPlruTouchOnHit;
    DiffReport report;
    for (std::uint64_t seed = 1; seed <= 5 && !report.diverged; ++seed)
        report = diffStream(cfg, stream(seed, 600, hotParams()), opts);
    const std::vector<std::string> legs = {"serial", "batch", "bus",
                                           "serial-lanes", "bus-lanes"};
    EXPECT_EQ(report.divergedLegs, legs) << report.describe();
}

TEST(DiffHarnessTest, AgreesOnDefaultBoard)
{
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    const DiffReport report = diffStream(cfg, stream(21, 500));
    EXPECT_FALSE(report.diverged) << report.describe();
    EXPECT_TRUE(report.summary.empty());
    EXPECT_TRUE(report.divergedLegs.empty());
    EXPECT_TRUE(report.flightDump.empty());
}

TEST(DiffHarnessTest, PlruMutationIsCaughtAndShrinksSmall)
{
    const auto cfg = conflictBoard(cache::ReplacementPolicy::TreePLRU);
    DiffOptions opts;
    opts.mutation = RefMutation::SkipPlruTouchOnHit;

    // Find a seed the mutation bites on (it needs a hit wedged between
    // the fills and the conflict miss of one set; a hot footprint makes
    // that nearly certain immediately).
    std::vector<bus::BusTransaction> failing;
    DiffReport report;
    for (std::uint64_t seed = 1; seed <= 5 && failing.empty(); ++seed) {
        auto txns = stream(seed, 600, hotParams());
        report = diffStream(cfg, txns, opts);
        if (report.diverged)
            failing = std::move(txns);
    }
    ASSERT_FALSE(failing.empty())
        << "SkipPlruTouchOnHit never diverged: the harness is blind "
           "to replacement bugs";
    EXPECT_FALSE(report.summary.empty());
    EXPECT_FALSE(report.describe().empty());
    EXPECT_FALSE(report.flightDump.empty())
        << "divergence arrived without its flight-recorder dump";

    // The acceptance bar: ddmin reduces the witness to <= 10 txns
    // (minimum possible here is ~6: four fills, a hit, a conflict).
    const auto shrunk = shrinkStream(
        failing, [&](const std::vector<bus::BusTransaction> &s) {
            return diffStream(cfg, s, opts).diverged;
        });
    EXPECT_LE(shrunk.size(), 10u);
    EXPECT_TRUE(diffStream(cfg, shrunk, opts).diverged);
}

TEST(DiffHarnessTest, SnooperDowngradeMutationIsCaught)
{
    // Coherence bugs only bite across nodes: 4 nodes x 2 CPUs, with
    // enough sharing that remote Rwitm/Read snoops hit valid lines.
    const auto cfg = ies::makeUniformBoard(
        4, 2,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
    DiffOptions opts;
    opts.mutation = RefMutation::DropSnooperDowngrade;

    StimulusParams p = hotParams();
    p.shareFraction = 0.6;
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed)
        caught = diffStream(cfg, stream(seed, 600, p), opts).diverged;
    EXPECT_TRUE(caught)
        << "DropSnooperDowngrade never diverged: the harness is blind "
           "to coherence bugs";
}

TEST(DiffHarnessTest, ProtocolTableFlipIsCaught)
{
    // Flip one data bit of the spec itself: a clean Read miss installs
    // Shared instead of Exclusive in the oracle's copy of MESI. The
    // tables now disagree (fingerprint check), and the boards must too.
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    const auto ref_cfg = flippedProtocol(cfg);
    ASSERT_NE(cfg.nodes[0].protocol.fingerprint(),
              ref_cfg.nodes[0].protocol.fingerprint());

    DiffOptions opts;
    opts.refConfig = &ref_cfg;
    const DiffReport report = diffStream(cfg, stream(31, 400), opts);
    EXPECT_TRUE(report.diverged)
        << "a flipped protocol-table entry went undetected";
    EXPECT_FALSE(report.details.empty());
}

TEST(DiffHarnessTest, ReportDetailListIsBounded)
{
    // A protocol flip diverges nearly everywhere; the report must
    // still truncate at maxDetails instead of dumping thousands of
    // lines into a CI log.
    const auto cfg = conflictBoard(cache::ReplacementPolicy::LRU);
    const auto ref_cfg = flippedProtocol(cfg);

    DiffOptions opts;
    opts.refConfig = &ref_cfg;
    opts.maxDetails = 3;
    const DiffReport report = diffStream(cfg, stream(31, 400), opts);
    ASSERT_TRUE(report.diverged);
    EXPECT_LE(report.details.size(), 3u);
}

} // namespace
} // namespace memories::oracle
