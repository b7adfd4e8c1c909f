/**
 * @file
 * diffStreamFromCheckpoint: resume both the production board and the
 * independent RefBoard from one IESCKPT file and diff the tail. The
 * clean path must agree on tricky lattice points (per-set RNG draws,
 * set sampling, multi-node snooping); a deliberately mutated oracle
 * must still diverge (proving the resumed diff has teeth); and
 * checkpoints the oracle cannot model — fault-injector state, wrong
 * configuration — must be rejected up front.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>
#include <unistd.h>

#include "common/logging.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "oracle/diff.hh"
#include "oracle/stimulus.hh"

namespace memories::oracle
{
namespace
{

const ies::BoardConfig &
latticeConfig(const std::string &name)
{
    static const std::vector<LatticeConfig> lattice = latticeConfigs();
    for (const LatticeConfig &c : lattice) {
        if (c.name == name)
            return c.config;
    }
    fatal("no lattice config named ", name);
}

std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count = 600)
{
    StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = 8;
    return StimulusGen(p).generate();
}

class DiffFromCheckpointTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Keyed on the process, not an address: with ASLR off (as
        // under TSan) concurrent test processes reuse addresses.
        static int counter = 0;
        path_ = ::testing::TempDir() + "diff_resume_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(++counter) + ".ckpt";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    /** Feed the first @p k of @p txns into a fresh board and save. */
    void writeCheckpoint(const ies::BoardConfig &cfg,
                         const std::vector<bus::BusTransaction> &txns,
                         std::size_t k, bool drainFirst = false)
    {
        ies::MemoriesBoard board(cfg);
        for (std::size_t i = 0; i < k; ++i)
            board.feedCommitted(txns[i]);
        if (drainFirst)
            board.drainAll();
        board.saveState(path_);
    }

    std::string path_;
};

TEST_F(DiffFromCheckpointTest, ResumedDiffAgreesOnTrickyConfigs)
{
    // Random replacement (per-set RNG streams must resume in step),
    // set sampling, and a four-node coherent machine.
    for (const char *name :
         {"mesi-2m-4w-random", "mesi-8m-sampled4", "mesi-4node-2cpu"}) {
        const ies::BoardConfig &cfg = latticeConfig(name);
        const auto txns = stream(17);
        writeCheckpoint(cfg, txns, txns.size() / 2);
        const std::vector<bus::BusTransaction> tail(
            txns.begin() + txns.size() / 2, txns.end());
        const DiffReport report =
            diffStreamFromCheckpoint(cfg, path_, tail);
        EXPECT_FALSE(report.diverged)
            << name << ": " << report.describe();
    }
}

TEST_F(DiffFromCheckpointTest, ResumedDiffAgreesOnDrainedCheckpoint)
{
    // A drained checkpoint (empty in-flight FIFO) is the documented
    // replay recipe; it must agree too.
    const ies::BoardConfig &cfg = latticeConfig("mesi-2m-4w-lru");
    const auto txns = stream(23);
    writeCheckpoint(cfg, txns, txns.size() / 2, /*drainFirst=*/true);
    const std::vector<bus::BusTransaction> tail(
        txns.begin() + txns.size() / 2, txns.end());
    const DiffReport report = diffStreamFromCheckpoint(cfg, path_, tail);
    EXPECT_FALSE(report.diverged) << report.describe();
}

TEST_F(DiffFromCheckpointTest, MutatedOracleStillDiverges)
{
    // Smoke check that the resumed comparison can actually fail: an
    // oracle that forgets PLRU touches must drift from the warm
    // production board within the tail. Needs a geometry where the
    // tail actually evicts — 2MiB / (4KiB x 4) = 128 sets with a hot
    // 1MiB-per-CPU footprint piles conflict misses into every set
    // (same recipe as diff_harness_test.cc's mutation smoke).
    const ies::BoardConfig cfg = ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{2 * MiB, 4, 4096,
                           cache::ReplacementPolicy::TreePLRU});
    DiffOptions opts;
    opts.mutation = RefMutation::SkipPlruTouchOnHit;
    bool caught = false;
    for (std::uint64_t seed = 1; seed <= 5 && !caught; ++seed) {
        StimulusParams p;
        p.seed = seed;
        p.count = 1200;
        p.cpus = 8;
        p.footprintLines = 1 << 13;
        p.sharedLines = 256;
        const auto txns = StimulusGen(p).generate();
        writeCheckpoint(cfg, txns, txns.size() / 2);
        const std::vector<bus::BusTransaction> tail(
            txns.begin() + txns.size() / 2, txns.end());
        const DiffReport report =
            diffStreamFromCheckpoint(cfg, path_, tail, opts);
        if (report.diverged) {
            EXPECT_FALSE(report.summary.empty());
            // Every resumed leg carries the drift: serial, batch, bus.
            EXPECT_EQ(report.divergedLegs.size(), 3u)
                << report.describe();
            caught = true;
        }
    }
    EXPECT_TRUE(caught)
        << "PLRU mutation survived the resumed-diff harness";
}

TEST_F(DiffFromCheckpointTest, RejectsInjectorBearingCheckpoint)
{
    const ies::BoardConfig &cfg = latticeConfig("mesi-2m-4w-lru");
    const auto txns = stream(31);
    {
        ies::MemoriesBoard board(cfg);
        const auto plan =
            fault::FaultPlan::parse("dropreply prob 0.02\n");
        fault::FaultInjector inj(plan, 5);
        board.attachFaultInjector(inj);
        for (std::size_t i = 0; i < txns.size() / 2; ++i)
            board.feedCommitted(txns[i]);
        board.saveState(path_);
    }
    const std::vector<bus::BusTransaction> tail(
        txns.begin() + txns.size() / 2, txns.end());
    EXPECT_THROW(diffStreamFromCheckpoint(cfg, path_, tail),
                 FatalError);
}

TEST_F(DiffFromCheckpointTest, RejectsMismatchedConfiguration)
{
    const ies::BoardConfig &saved = latticeConfig("mesi-2m-4w-lru");
    const auto txns = stream(37);
    writeCheckpoint(saved, txns, txns.size() / 2);
    const std::vector<bus::BusTransaction> tail(
        txns.begin() + txns.size() / 2, txns.end());
    EXPECT_THROW(diffStreamFromCheckpoint(
                     latticeConfig("moesi-4m-4w-lru"), path_, tail),
                 FatalError);
}

} // namespace
} // namespace memories::oracle
