#include "common/random.hh"

#include <gtest/gtest.h>

#include <map>

#include "common/logging.hh"

namespace memories
{
namespace
{

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(RngTest, ZeroSeedIsUsable)
{
    Rng rng(0);
    EXPECT_NE(rng.next() | rng.next() | rng.next(), 0u);
}

TEST(RngTest, NextBoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, NextBoundedCoversRange)
{
    Rng rng(11);
    std::map<std::uint64_t, int> seen;
    for (int i = 0; i < 8000; ++i)
        ++seen[rng.nextBounded(8)];
    EXPECT_EQ(seen.size(), 8u);
    for (const auto &[value, count] : seen)
        EXPECT_GT(count, 800) << "value " << value << " underrepresented";
}

/** The division-first form nextBounded() replaced: the threshold is
 *  computed before every draw. Counts the raw draws it rejects. */
std::uint64_t
divisionFirstBounded(Rng &rng, std::uint64_t bound, std::uint64_t &rejected)
{
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        const __uint128_t m =
            static_cast<__uint128_t>(rng.next()) * bound;
        if (static_cast<std::uint64_t>(m) >= threshold)
            return static_cast<std::uint64_t>(m >> 64);
        ++rejected;
    }
}

TEST(RngTest, NextBoundedMatchesTheDivisionFirstForm)
{
    // Same accepted draws, same outputs, same final state. 2^63+1
    // rejects about half its raw draws. 2^32+1 and 2^64-1 have a
    // threshold of 1; 2^64-1 takes the threshold computation on
    // nearly every draw.
    const std::uint64_t bounds[] = {
        1, 3, 7, (std::uint64_t{1} << 32) + 1,
        (std::uint64_t{1} << 63) + 1, ~std::uint64_t{0}};
    for (const std::uint64_t bound : bounds) {
        Rng fast(bound ^ 0x5eed), reference(bound ^ 0x5eed);
        std::uint64_t rejected = 0;
        for (int i = 0; i < 100'000; ++i) {
            ASSERT_EQ(fast.nextBounded(bound),
                      divisionFirstBounded(reference, bound, rejected))
                << "bound " << bound << " draw " << i;
        }
        EXPECT_EQ(fast.state(), reference.state()) << "bound " << bound;
        if (bound == (std::uint64_t{1} << 63) + 1) {
            EXPECT_GT(rejected, 40'000u);
        }
    }
}

TEST(RngDeathTest, NextBoundedZeroPanics)
{
    Rng rng(1);
    EXPECT_DEATH(rng.nextBounded(0), "nextBounded");
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, NextBoolMatchesProbability)
{
    Rng rng(5);
    int trues = 0;
    for (int i = 0; i < 100000; ++i)
        trues += rng.nextBool(0.25);
    EXPECT_NEAR(trues / 100000.0, 0.25, 0.02);
}

TEST(ZipfTest, RejectsDegenerateArguments)
{
    EXPECT_THROW(ZipfSampler(0, 0.5), FatalError);
    EXPECT_THROW(ZipfSampler(10, 1.0), FatalError);
    EXPECT_THROW(ZipfSampler(10, -0.1), FatalError);
}

TEST(ZipfTest, SamplesStayInRange)
{
    ZipfSampler zipf(1000, 0.8);
    Rng rng(9);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 1000u);
}

TEST(ZipfTest, RankZeroIsHottest)
{
    ZipfSampler zipf(10000, 0.9);
    Rng rng(13);
    std::uint64_t rank0 = 0, rank_mid = 0;
    for (int i = 0; i < 200000; ++i) {
        const auto r = zipf.sample(rng);
        rank0 += r == 0;
        rank_mid += r >= 5000 && r < 5001;
    }
    EXPECT_GT(rank0, 50u * std::max<std::uint64_t>(rank_mid, 1));
}

TEST(ZipfTest, ThetaZeroIsNearUniform)
{
    ZipfSampler zipf(100, 0.0);
    Rng rng(17);
    std::uint64_t low_half = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        low_half += zipf.sample(rng) < 50;
    EXPECT_NEAR(low_half / static_cast<double>(n), 0.5, 0.05);
}

TEST(ZipfTest, SkewConcentratesMass)
{
    // Higher theta concentrates more probability on the top ranks.
    Rng rng_a(19), rng_b(19);
    ZipfSampler mild(100000, 0.5), heavy(100000, 0.95);
    std::uint64_t mild_top = 0, heavy_top = 0;
    for (int i = 0; i < 50000; ++i) {
        mild_top += mild.sample(rng_a) < 100;
        heavy_top += heavy.sample(rng_b) < 100;
    }
    EXPECT_GT(heavy_top, mild_top * 2);
}

TEST(ZipfTest, HugePopulationConstructsQuickly)
{
    // Billion-item pools (the TPC-C page space) must not take O(n).
    ZipfSampler zipf(2'000'000'000ull, 0.8);
    Rng rng(23);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(zipf.sample(rng), 2'000'000'000ull);
}

} // namespace
} // namespace memories
