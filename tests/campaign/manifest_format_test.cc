/**
 * @file
 * IESCAMP manifest structure and fail-closed open (docs/FORMATS.md
 * §8; the file is an IESCKPT container, §7): because the manifest is
 * atomically rewritten, no legal crash can tear it — so *every*
 * malformed variant (truncation at any boundary, a flipped bit
 * anywhere, a torn first-write rename, bad magic or version,
 * trailing bytes) must be rejected with a clear FatalError, and a
 * rejected open must never let partial results be reused.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/manifest.hh"
#include "campaign/plan.hh"
#include "checkpoint/codec.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"

namespace memories::campaign
{
namespace
{

CampaignPlan
smallPlan()
{
    CampaignPlan plan;
    plan.checkpointEvery = 64;
    for (int i = 0; i < 3; ++i) {
        UnitSpec u;
        u.configName = "mesi-2m-4w-lru";
        u.configFingerprint = 0x1234 + i;
        u.seed = 7 + i;
        u.txns = 512;
        plan.units.push_back(u);
    }
    return plan;
}

class ManifestFormatTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = ::testing::TempDir() + "iescamp_format_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
        ckpt::ensureDir(dir_);
        path_ = Manifest::manifestPath(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::vector<std::uint8_t> manifestBytes() const
    {
        return ckpt::readFileBytes(path_, "manifest");
    }

    /** Overwrite the manifest with raw bytes, no atomicity games. */
    void writeRaw(const std::vector<std::uint8_t> &bytes) const
    {
        std::FILE *f = std::fopen(path_.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        // An empty vector's data() may be null, which fwrite must not
        // see even for a zero-byte write; the file stays empty.
        if (!bytes.empty()) {
            ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                      bytes.size());
        }
        std::fclose(f);
    }

    std::string dir_;
    std::string path_;
};

TEST_F(ManifestFormatTest, RoundTripsPlanAndStatuses)
{
    const CampaignPlan plan = smallPlan();
    {
        Manifest m = Manifest::create(dir_, plan);
        UnitStatus s = m.unit(1);
        s.state = UnitState::Running;
        s.attempts = 2;
        s.position = 128;
        s.ckptCrc = 0xdeadbeef;
        s.retireCrc = 0x1111;
        s.overflowDrops = 3;
        s.consumed = 128;
        s.note = "mid-flight";
        m.update(1, s);
    }
    const Manifest back = Manifest::open(dir_);
    EXPECT_EQ(back.plan(), plan);
    EXPECT_EQ(back.unit(0), UnitStatus{});
    EXPECT_EQ(back.unit(1).state, UnitState::Running);
    EXPECT_EQ(back.unit(1).attempts, 2u);
    EXPECT_EQ(back.unit(1).position, 128u);
    EXPECT_EQ(back.unit(1).ckptCrc, 0xdeadbeefu);
    EXPECT_EQ(back.unit(1).note, "mid-flight");
    EXPECT_GE(back.sequence(), 2u);
}

TEST_F(ManifestFormatTest, CreateRefusesToClobberExistingCampaign)
{
    Manifest::create(dir_, smallPlan());
    EXPECT_THROW(Manifest::create(dir_, smallPlan()), FatalError);
}

TEST_F(ManifestFormatTest, MissingManifestFailsClosed)
{
    EXPECT_THROW(Manifest::open(dir_), FatalError);
}

TEST_F(ManifestFormatTest, TornFirstWriteRenameFailsClosed)
{
    // A crash between writing manifest.iescamp.tmp and the rename of
    // the *first* persist leaves only the temp file. The bytes may
    // even be complete — but they were never published, so open()
    // must refuse to trust them.
    Manifest::create(dir_, smallPlan());
    std::filesystem::rename(path_, path_ + ".tmp");
    try {
        Manifest::open(dir_);
        FAIL() << "torn rename was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("torn rename"),
                  std::string::npos)
            << err.what();
    }
}

TEST_F(ManifestFormatTest, StaleTmpBesideValidManifestIsIgnored)
{
    Manifest::create(dir_, smallPlan());
    const std::vector<std::uint8_t> good = manifestBytes();
    // A crash mid-write leaves a garbage .tmp beside the published
    // manifest; open() must use the published file and succeed.
    std::FILE *f = std::fopen((path_ + ".tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("partial garbage", f);
    std::fclose(f);
    EXPECT_NO_THROW(Manifest::open(dir_));
    EXPECT_EQ(manifestBytes(), good);
}

TEST_F(ManifestFormatTest, TruncationAtEveryLengthFailsClosed)
{
    Manifest::create(dir_, smallPlan());
    const std::vector<std::uint8_t> good = manifestBytes();
    // Every proper prefix — including cuts exactly at header and
    // record boundaries — must be rejected. An atomic rewrite never
    // publishes a prefix, so a short manifest is always corruption.
    for (std::size_t len = 0; len < good.size(); ++len) {
        writeRaw({good.begin(), good.begin() + len});
        EXPECT_THROW(Manifest::open(dir_), FatalError)
            << "prefix of " << len << " bytes was accepted";
    }
}

TEST_F(ManifestFormatTest, EveryBitFlipFailsClosedOrRoundTrips)
{
    Manifest::create(dir_, smallPlan());
    const std::vector<std::uint8_t> good = manifestBytes();
    // Walk a bit through the entire file. Every flip must either be
    // caught (the CRC layers) — there is no third outcome where a
    // silently different campaign state is accepted.
    for (std::size_t byte = 0; byte < good.size(); ++byte) {
        std::vector<std::uint8_t> bad = good;
        bad[byte] ^= 1u << (byte % 8);
        writeRaw(bad);
        EXPECT_THROW(Manifest::open(dir_), FatalError)
            << "flip at byte " << byte << " was accepted";
    }
    writeRaw(good);
    EXPECT_NO_THROW(Manifest::open(dir_));
}

TEST_F(ManifestFormatTest, TrailingGarbageFailsClosed)
{
    Manifest::create(dir_, smallPlan());
    std::vector<std::uint8_t> bad = manifestBytes();
    bad.push_back(0x00);
    writeRaw(bad);
    EXPECT_THROW(Manifest::open(dir_), FatalError);
}

TEST_F(ManifestFormatTest, BadMagicAndVersionFailClosed)
{
    Manifest::create(dir_, smallPlan());
    const std::vector<std::uint8_t> good = manifestBytes();

    std::vector<std::uint8_t> bad = good;
    bad[0] = 'X';
    writeRaw(bad);
    EXPECT_THROW(Manifest::open(dir_), FatalError);

    // A future version must be refused even with a fixed-up header
    // CRC — flipping the version alone is caught by the CRC, so
    // recompute it (the container's header CRC at bytes 24-27, over
    // bytes 0-23) to prove the version check itself fires.
    bad = good;
    bad[8] = 99;
    const std::uint32_t crc = ckpt::crc32(bad.data(), 24);
    for (int i = 0; i < 4; ++i)
        bad[24 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    writeRaw(bad);
    try {
        Manifest::open(dir_);
        FAIL() << "future version was accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("version"),
                  std::string::npos)
            << err.what();
    }
}

TEST_F(ManifestFormatTest, EmptyFileAndEmptyPlanFailClosed)
{
    writeRaw({});
    EXPECT_THROW(Manifest::open(dir_), FatalError);
    EXPECT_THROW(Manifest::create(dir_ + "/nested", CampaignPlan{}),
                 FatalError);
}

TEST_F(ManifestFormatTest, PlanValidationRejectsNonsense)
{
    CampaignPlan plan = smallPlan();
    plan.checkpointEvery = 0;
    ckpt::Sink sink;
    plan.save(sink);
    ckpt::Source src(sink.bytes().data(), sink.size(), "test plan");
    EXPECT_THROW(CampaignPlan::load(src), FatalError);

    CampaignPlan zeroTxns = smallPlan();
    zeroTxns.units[0].txns = 0;
    ckpt::Sink sink2;
    zeroTxns.save(sink2);
    ckpt::Source src2(sink2.bytes().data(), sink2.size(), "test plan");
    EXPECT_THROW(CampaignPlan::load(src2), FatalError);
}

TEST_F(ManifestFormatTest, FingerprintCoversEveryParameter)
{
    const CampaignPlan base = smallPlan();
    CampaignPlan other = base;
    other.checkpointEvery *= 2;
    EXPECT_NE(base.fingerprint(), other.fingerprint());
    other = base;
    other.units[2].seed += 1;
    EXPECT_NE(base.fingerprint(), other.fingerprint());
    other = base;
    other.units[0].configName = "something-else";
    EXPECT_NE(base.fingerprint(), other.fingerprint());
    EXPECT_EQ(base.fingerprint(), smallPlan().fingerprint());
}

} // namespace
} // namespace memories::campaign
