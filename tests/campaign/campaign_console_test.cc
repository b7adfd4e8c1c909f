/**
 * @file
 * Console surface of the campaign engine: registerConsoleCommands
 * plugs `campaign start|resume|status` into an ies::Console via the
 * extension hook, malformed invocations come back as "error: ..."
 * text (never a crash), and status renders the durable manifest
 * state. A tiny end-to-end `campaign start` run over the full
 * lattice exercises the same path the interactive console uses.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "campaign/console.hh"
#include "campaign/manifest.hh"
#include "campaign/plan.hh"
#include "campaign/runner.hh"
#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "ies/console.hh"
#include "oracle/diff.hh"

namespace memories::campaign
{
namespace
{

class CampaignConsoleTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = ::testing::TempDir() + "iescamp_console_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        registerConsoleCommands(console_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    bus::Bus6xx bus_;
    ies::Console console_{bus_};
    std::string dir_;
};

TEST_F(CampaignConsoleTest, RegisteredCommandAppearsInHelp)
{
    const std::string help = console_.execute("help");
    EXPECT_NE(help.find("campaign"), std::string::npos);
}

TEST_F(CampaignConsoleTest, MalformedInvocationsReturnErrorText)
{
    // Every bad shape must come back as "error: ..." console text —
    // the extension hook catches FatalError just like built-ins.
    const char *bad[] = {
        "campaign",
        "campaign start",
        "campaign start somedir",
        "campaign start somedir 1",
        "campaign start somedir notanumber 500",
        "campaign start somedir 1 500 64 extra",
        "campaign resume",
        "campaign resume a b",
        "campaign status",
        "campaign frobnicate x",
    };
    for (const char *cmd : bad) {
        const std::string reply = console_.execute(cmd);
        EXPECT_EQ(reply.rfind("error: ", 0), 0u) << cmd << " -> "
                                                 << reply;
    }
}

TEST_F(CampaignConsoleTest, PlansTheManifestCannotCountAreRefusedFirst)
{
    // 306783379 seeds x 14 lattice configs is 4294967306 units, one
    // more than the manifest's 32-bit count holds (after 2^32 - 1):
    // buildPlan refuses before it allocates a single unit...
    ASSERT_EQ(oracle::latticeConfigs().size(), 14u);
    EXPECT_THROW(buildPlan(oracle::latticeConfigs(), 1, 306783379, 1, 1),
                 FatalError);
    // ...and the console builds the plan before it creates the
    // campaign directory, so a refused plan leaves none behind.
    const std::string reply =
        console_.execute("campaign start " + dir_ + " 306783379 1");
    EXPECT_EQ(reply.rfind("error: ", 0), 0u) << reply;
    EXPECT_FALSE(std::filesystem::exists(dir_));
}

TEST_F(CampaignConsoleTest, StatusAndResumeOnMissingCampaignFailClosed)
{
    const std::string status =
        console_.execute("campaign status " + dir_);
    EXPECT_EQ(status.rfind("error: ", 0), 0u) << status;
    const std::string resume =
        console_.execute("campaign resume " + dir_);
    EXPECT_EQ(resume.rfind("error: ", 0), 0u) << resume;
}

TEST_F(CampaignConsoleTest, StatusRendersManifestState)
{
    // Status only reads the manifest, so a campaign created directly
    // through the runner is visible to the console verbatim.
    ckpt::ensureDir(dir_);
    CampaignPlan plan = buildPlan(oracle::latticeConfigs(), 1, 1,
                                  /*txnsPerUnit=*/96,
                                  /*checkpointEvery=*/96);
    Manifest::create(dir_, plan);
    const std::string status =
        console_.execute("campaign status " + dir_);
    EXPECT_EQ(status.rfind("error: ", 0), std::string::npos) << status;
    EXPECT_NE(status.find("pending"), std::string::npos) << status;
}

TEST_F(CampaignConsoleTest, StartRunsTinyCampaignToCompletion)
{
    const std::string reply = console_.execute(
        "campaign start " + dir_ + " 1 96 96");
    EXPECT_NE(reply.find("campaign complete"), std::string::npos)
        << reply;

    const Manifest m = Manifest::open(dir_);
    EXPECT_EQ(m.plan().units.size(),
              oracle::latticeConfigs().size());
    for (std::size_t i = 0; i < m.units().size(); ++i) {
        EXPECT_EQ(m.unit(i).state, UnitState::Done) << "unit " << i;
        // A result is a container under its unit's config fingerprint
        // with one result section; the manifest hashes the whole file.
        const auto bytes = ckpt::readFileBytes(m.resultPath(i), "result");
        EXPECT_EQ(ckpt::crc32(bytes.data(), bytes.size()),
                  m.unit(i).resultCrc)
            << "unit " << i;
        const auto image = ckpt::CheckpointImage::fromBytes(bytes, "result");
        EXPECT_EQ(image.configFingerprint(),
                  m.plan().units[i].configFingerprint)
            << "unit " << i;
        EXPECT_EQ(image.sectionIds(),
                  std::vector<std::uint32_t>{ckpt::secCampaignResult})
            << "unit " << i;
    }

    // A second start over the same directory must refuse to clobber
    // the finished campaign; resume is the idempotent no-op.
    const std::string again = console_.execute(
        "campaign start " + dir_ + " 1 96 96");
    EXPECT_EQ(again.rfind("error: ", 0), 0u) << again;
    const std::string resume =
        console_.execute("campaign resume " + dir_);
    EXPECT_NE(resume.find("campaign complete"), std::string::npos)
        << resume;
}

TEST_F(CampaignConsoleTest, RegisterCommandValidatesItsArguments)
{
    EXPECT_THROW(console_.registerCommand("", [](ies::Console &,
                                                 const auto &) {
        return std::string();
    }),
                 FatalError);
    EXPECT_THROW(console_.registerCommand("x", nullptr), FatalError);
}

} // namespace
} // namespace memories::campaign
