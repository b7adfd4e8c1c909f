/**
 * @file
 * IESPROF unit tier: stage accounting, the child <= parent invariant,
 * and the reports (stage table, profile JSON, telemetry series). The
 * non-perturbation claim — attached vs detached byte-equivalence —
 * lives in prof_equiv_test.cc; this file pins the arithmetic and the
 * formats.
 */

#include "profile/profiler.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ies/board.hh"
#include "oracle/stimulus.hh"
#include "telemetry/sampler.hh"

namespace memories::profile
{
namespace
{

TEST(ProfilerTest, StageNamesAndParentsFormATree)
{
    // Every stage has a printable name; every non-root stage's parent
    // chain terminates at FeedBatch (describe() and the profile JSON
    // both name it).
    for (std::size_t s = 0; s < numStages; ++s) {
        const Stage stage = static_cast<Stage>(s);
        EXPECT_NE(std::string(stageName(stage)), "");
        if (stage == Stage::FeedBatch)
            continue;
        Stage at = stage;
        int hops = 0;
        while (at != Stage::FeedBatch && hops < 8) {
            at = stageParent(at);
            ++hops;
        }
        EXPECT_EQ(at, Stage::FeedBatch)
            << stageName(stage) << " does not root at feed_batch";
    }
}

TEST(ProfilerTest, RecordStageAccumulatesCallsAndTime)
{
    Profiler prof;
    const std::uint64_t t0 = Profiler::nowNs();
    prof.recordStage(Stage::Emulation, t0);
    const std::uint64_t t1 = Profiler::nowNs();
    prof.recordStage(Stage::Emulation, t1);
    const std::uint64_t t2 = Profiler::nowNs();
    const ProfReport report = prof.snapshot();
    EXPECT_EQ(report.stage(Stage::Emulation).calls, 2u);
    // Every bout is timed: the cell holds the sum of both bouts, each
    // bounded by the clock reads around it.
    EXPECT_LE(report.stage(Stage::Emulation).ns, t2 - t0);
    EXPECT_EQ(report.stage(Stage::BatchAdmission).calls, 0u);
}

TEST(ProfilerTest, ScopedStageIsANoOpOnNullProfiler)
{
    // The detached contract: a null profiler pointer must be exactly
    // one branch, with no cell writes to crash or misattribute.
    ScopedStage scope(nullptr, Stage::BatchAdmission);
    SUCCEED();
}

TEST(ProfilerTest, ResetClearsEverything)
{
    Profiler prof;
    prof.recordStage(Stage::FeedBatch, Profiler::nowNs() - 10);
    prof.recordStage(Stage::Emulation, Profiler::nowNs());
    // batches is the root's call count.
    ASSERT_EQ(prof.snapshot().batches, 1u);
    prof.reset();
    const ProfReport report = prof.snapshot();
    EXPECT_EQ(report.batches, 0u);
    EXPECT_EQ(report.stage(Stage::FeedBatch).ns, 0u);
    EXPECT_EQ(report.stage(Stage::Emulation).calls, 0u);
}

/** A profiled batch run over a real board, for the report tests. */
Profiler &
profiledRun(ies::MemoriesBoard &board, Profiler &prof,
            std::size_t count = 2000)
{
    board.attachProfiler(prof);
    oracle::StimulusParams p;
    p.seed = 7;
    p.count = count;
    const auto txns = oracle::StimulusGen(p).generate();
    constexpr std::size_t chunk = 256;
    for (std::size_t at = 0; at < txns.size(); at += chunk) {
        const std::size_t n = std::min(chunk, txns.size() - at);
        board.feedBatch(&txns[at], n);
    }
    board.drainAll();
    return prof;
}

ies::BoardConfig
smallBoard()
{
    return ies::makeUniformBoard(
        2, 4,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
}

TEST(ProfilerTest, BoardRunAttributesTimeToEveryHotStage)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);

    const ProfReport report = prof.snapshot();
    EXPECT_GT(report.batches, 0u);
    EXPECT_GT(report.stage(Stage::FeedBatch).ns, 0u);
    EXPECT_GT(report.stage(Stage::BatchAdmission).ns, 0u);
    // The slab walk runs once per batch that retired anything.
    EXPECT_GT(report.stage(Stage::Emulation).calls, 0u);
    EXPECT_LE(report.stage(Stage::Emulation).calls, report.batches);
    EXPECT_GT(report.stage(Stage::Emulation).ns, 0u);

    // The stage tree must attribute ~all of feed_batch to its direct
    // children — the same invariant check_bench_regression.py gates.
    const std::uint64_t total = report.stage(Stage::FeedBatch).ns;
    const std::uint64_t children =
        report.stage(Stage::BatchAdmission).ns +
        report.stage(Stage::Emulation).ns;
    EXPECT_LT(children, total * 11 / 10);
}

TEST(ProfilerTest, NoStageOutweighsItsParent)
{
    // A child stage runs inside its parent's clock pair, so its time
    // can never exceed the parent's; check_bench_regression.py gates
    // the same invariant on the bench's profile.
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);

    const ProfReport report = prof.snapshot();
    for (std::size_t i = 0; i < numStages; ++i) {
        const Stage s = static_cast<Stage>(i);
        if (s == Stage::FeedBatch)
            continue;
        EXPECT_LE(report.stage(s).ns, report.stage(stageParent(s)).ns)
            << stageName(s) << " outweighs "
            << stageName(stageParent(s));
    }
}

TEST(ProfilerTest, DescribeNamesStages)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);
    const std::string text = prof.describe();
    EXPECT_NE(text.find("feed_batch"), std::string::npos);
    EXPECT_NE(text.find("batch_admission"), std::string::npos);
    EXPECT_NE(text.find("emulation"), std::string::npos);
}

TEST(ProfilerTest, ProfileJsonCarriesStages)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    profiledRun(board, prof);
    const std::string json = prof.json(2000);
    EXPECT_EQ(json.rfind("{", 0), 0u);
    EXPECT_EQ(json.substr(json.size() - 2), "]}");
    EXPECT_NE(json.find("\"refs\":2000"), std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"feed_batch\""),
              std::string::npos);
    EXPECT_NE(json.find("\"stage\":\"emulation\",\"parent\":"
                        "\"feed_batch\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ns_per_ref\""), std::string::npos);
}

TEST(ProfilerTest, AttachTelemetryExportsStageSeries)
{
    ies::MemoriesBoard board(smallBoard());
    Profiler prof;
    board.attachProfiler(prof);

    telemetry::Sampler sampler(1000);
    std::vector<std::string> names;
    sampler.addExporter([&names](const telemetry::WindowRecord &w) {
        for (const auto &c : w.counters)
            names.push_back(*c.name);
    });
    prof.attachTelemetry(sampler);

    oracle::StimulusParams p;
    p.seed = 3;
    p.count = 500;
    const auto txns = oracle::StimulusGen(p).generate();
    board.feedBatch(txns);
    board.drainAll();
    sampler.finish(txns.back().cycle + 1);

    auto has = [&names](const std::string &name) {
        for (const auto &n : names)
            if (n == name)
                return true;
        return false;
    };
    for (std::size_t s = 0; s < numStages; ++s) {
        const std::string base =
            std::string("prof.stage.") + stageName(static_cast<Stage>(s));
        EXPECT_TRUE(has(base + ".ns")) << base;
        EXPECT_TRUE(has(base + ".calls")) << base;
    }
}

} // namespace
} // namespace memories::profile
