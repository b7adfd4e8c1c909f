#include "common/units.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/types.hh"

namespace memories
{
namespace
{

TEST(UnitsTest, ParsesPlainBytes)
{
    EXPECT_EQ(parseByteSize("128"), 128u);
    EXPECT_EQ(parseByteSize("128B"), 128u);
}

TEST(UnitsTest, ParsesBinaryUnits)
{
    EXPECT_EQ(parseByteSize("2KB"), 2 * KiB);
    EXPECT_EQ(parseByteSize("64MB"), 64 * MiB);
    EXPECT_EQ(parseByteSize("8GB"), 8 * GiB);
    EXPECT_EQ(parseByteSize("16KiB"), 16 * KiB);
}

TEST(UnitsTest, RejectsGarbage)
{
    EXPECT_THROW(parseByteSize(""), FatalError);
    EXPECT_THROW(parseByteSize("MB"), FatalError);
    EXPECT_THROW(parseByteSize("12XB"), FatalError);
}

TEST(UnitsTest, RejectsSizesBeyond64Bits)
{
    EXPECT_EQ(parseByteSize("18446744073709551615"), UINT64_MAX);
    EXPECT_EQ(parseByteSize("17592186044415MB"), 17592186044415ull * MiB);
    EXPECT_THROW(parseByteSize("18446744073711648768"), FatalError);
    EXPECT_THROW(parseByteSize("17592186044416MB"), FatalError);
    EXPECT_THROW(parseByteSize("17179869184GB"), FatalError);
}

TEST(UnitsTest, ParseUnsignedTakesDecimalDigitsUpToTheMax)
{
    EXPECT_EQ(parseUnsigned("0", "n"), 0u);
    EXPECT_EQ(parseUnsigned("007", "n"), 7u);
    EXPECT_EQ(parseUnsigned("18446744073709551615", "n"), UINT64_MAX);
    EXPECT_EQ(parseUnsigned("255", "n", 255), 255u);
    for (const char *bad : {"", "+1", "-1", " 1", "1 ", "1x", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(parseUnsigned(bad, "n"), FatalError) << bad;
    try {
        parseUnsigned("256", "CPU id", 255);
        FAIL() << "256 does not fit a CPU id";
    } catch (const FatalError &err) {
        EXPECT_STREQ(err.what(),
                     "CPU id '256' is out of range (max 255)");
    }
}

TEST(UnitsTest, ParseUnsignedBaseZeroReadsLikeC)
{
    constexpr std::uint64_t any = UINT64_MAX;
    EXPECT_EQ(parseUnsigned("0x1f", "n", any, 0), 0x1fu);
    EXPECT_EQ(parseUnsigned("0X1F", "n", any, 0), 0x1fu);
    EXPECT_EQ(parseUnsigned("010", "n", any, 0), 8u);
    EXPECT_EQ(parseUnsigned("0", "n", any, 0), 0u);
    EXPECT_EQ(parseUnsigned("19", "n", any, 0), 19u);
    EXPECT_EQ(parseUnsigned("0xffffffffffffffff", "n", any, 0), any);
    for (const char *bad : {"0x", "08", "0x10zz", "1a", "zz",
                            "0x10000000000000000"})
        EXPECT_THROW(parseUnsigned(bad, "n", any, 0), FatalError) << bad;
    EXPECT_THROW(parseUnsigned("0x100000000", "n", UINT32_MAX, 0),
                 FatalError);
}

TEST(UnitsTest, FormatPicksLargestExactUnit)
{
    EXPECT_EQ(formatByteSize(8 * GiB), "8GB");
    EXPECT_EQ(formatByteSize(64 * MiB), "64MB");
    EXPECT_EQ(formatByteSize(2 * KiB), "2KB");
    EXPECT_EQ(formatByteSize(100), "100B");
    EXPECT_EQ(formatByteSize(1536), "1536B"); // not exactly 1.5KB
}

TEST(UnitsTest, RoundTrip)
{
    for (std::uint64_t v : {128ull, 2048ull, 64ull * MiB, 8ull * GiB})
        EXPECT_EQ(parseByteSize(formatByteSize(v)), v);
}

TEST(UnitsTest, FormatSecondsRanges)
{
    EXPECT_NE(formatSeconds(3.28e-3).find("ms"), std::string::npos);
    EXPECT_NE(formatSeconds(1.0).find("s"), std::string::npos);
    EXPECT_NE(formatSeconds(1000.0).find("min"), std::string::npos);
    EXPECT_NE(formatSeconds(13 * 3600.0).find("hours"),
              std::string::npos);
    EXPECT_NE(formatSeconds(3 * 86400.0).find("days"), std::string::npos);
}

} // namespace
} // namespace memories
