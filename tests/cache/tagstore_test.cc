#include "cache/tagstore.hh"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <utility>

#include "common/random.hh"

namespace memories::cache
{
namespace
{

CacheConfig
smallConfig(unsigned assoc = 2,
            ReplacementPolicy policy = ReplacementPolicy::LRU)
{
    // 8KB, 128B lines -> 64 lines.
    return CacheConfig{8 * KiB, assoc, 128, policy};
}

TEST(TagStoreTest, MissesWhenEmpty)
{
    TagStore ts(smallConfig());
    EXPECT_FALSE(ts.lookup(0x1000).hit);
    EXPECT_EQ(ts.occupancy(), 0u);
}

TEST(TagStoreTest, HitsAfterAllocate)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 2);
    const auto r = ts.lookup(0x1000);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.state, 2);
    EXPECT_EQ(ts.occupancy(), 1u);
}

TEST(TagStoreTest, HitsAnywhereInLine)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    EXPECT_TRUE(ts.lookup(0x1000 + 127).hit);
    EXPECT_FALSE(ts.lookup(0x1000 + 128).hit);
}

TEST(TagStoreTest, LineAlign)
{
    TagStore ts(smallConfig());
    EXPECT_EQ(ts.lineAlign(0x1234), 0x1200u & ~0x7full);
}

TEST(TagStoreTest, AllocateIntoEmptyFrameEvictsNothing)
{
    TagStore ts(smallConfig());
    const auto ev = ts.allocate(0x1000, 1);
    EXPECT_FALSE(ev.valid);
}

TEST(TagStoreTest, ConflictEvictionReportsVictim)
{
    TagStore ts(smallConfig(1)); // direct mapped, 64 sets
    const Addr a = 0x0000;
    const Addr b = a + 64 * 128; // same set, different tag
    ts.allocate(a, 3);
    const auto ev = ts.allocate(b, 1);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a);
    EXPECT_EQ(ev.state, 3);
    EXPECT_FALSE(ts.lookup(a).hit);
    EXPECT_TRUE(ts.lookup(b).hit);
}

TEST(TagStoreTest, LruEvictsLeastRecentlyUsed)
{
    TagStore ts(smallConfig(2));
    const std::uint64_t set_stride = 32 * 128; // 32 sets at 2-way
    const Addr a = 0, b = set_stride, c = 2 * set_stride;
    ts.allocate(a, 1);
    ts.allocate(b, 1);
    ts.lookup(a); // touch a; b becomes LRU
    const auto ev = ts.allocate(c, 1);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, b);
    EXPECT_TRUE(ts.lookup(a).hit);
}

TEST(TagStoreTest, FifoIgnoresTouches)
{
    TagStore ts(smallConfig(2, ReplacementPolicy::FIFO));
    const std::uint64_t set_stride = 32 * 128;
    const Addr a = 0, b = set_stride, c = 2 * set_stride;
    ts.allocate(a, 1);
    ts.allocate(b, 1);
    ts.lookup(a); // FIFO: does not protect a
    const auto ev = ts.allocate(c, 1);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a);
}

TEST(TagStoreTest, RandomReplacementStaysInSet)
{
    TagStore ts(smallConfig(4, ReplacementPolicy::Random));
    const std::uint64_t set_stride = 16 * 128; // 16 sets at 4-way
    for (int i = 0; i < 4; ++i)
        ts.allocate(i * set_stride, 1);
    // Fifth conflicting line must evict one of the four.
    const auto ev = ts.allocate(4 * set_stride, 1);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr % set_stride, 0u);
    EXPECT_EQ(ts.occupancy(), 4u);
}

TEST(TagStoreTest, SetStateChangesState)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    ts.setState(0x1000, 3);
    EXPECT_EQ(ts.probe(0x1000).state, 3);
}

TEST(TagStoreTest, SetStateInvalidRemovesLine)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    ts.setState(0x1000, invalidState);
    EXPECT_FALSE(ts.probe(0x1000).hit);
    EXPECT_EQ(ts.occupancy(), 0u);
}

TEST(TagStoreDeathTest, SetStateOnMissingLinePanics)
{
    TagStore ts(smallConfig());
    EXPECT_DEATH(ts.setState(0x1000, 2), "non-resident");
}

TEST(TagStoreDeathTest, AllocateInvalidStatePanics)
{
    TagStore ts(smallConfig());
    EXPECT_DEATH(ts.allocate(0x1000, invalidState), "Invalid");
}

TEST(TagStoreTest, InvalidateReportsResidency)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    EXPECT_TRUE(ts.invalidate(0x1000));
    EXPECT_FALSE(ts.invalidate(0x1000));
}

TEST(TagStoreTest, ProbeDoesNotTouchLru)
{
    TagStore ts(smallConfig(2));
    const std::uint64_t set_stride = 32 * 128;
    const Addr a = 0, b = set_stride, c = 2 * set_stride;
    ts.allocate(a, 1);
    ts.allocate(b, 1);
    ts.probe(a); // must NOT protect a
    const auto ev = ts.allocate(c, 1);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.lineAddr, a);
}

TEST(TagStoreTest, ForEachValidVisitsAll)
{
    TagStore ts(smallConfig());
    std::set<Addr> expected{0x0000, 0x0080, 0x0100}; // distinct sets
    for (Addr a : expected)
        ts.allocate(a, 1);
    std::set<Addr> seen;
    ts.forEachValid([&](Addr addr, LineStateRaw) { seen.insert(addr); });
    EXPECT_EQ(seen, expected);
}

TEST(TagStoreTest, ResetEmptiesStore)
{
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    ts.reset();
    EXPECT_EQ(ts.occupancy(), 0u);
    EXPECT_FALSE(ts.probe(0x1000).hit);
}

TEST(TagStoreTest, OccupancyNeverExceedsCapacity)
{
    TagStore ts(smallConfig(2));
    Rng rng(3);
    for (int i = 0; i < 10000; ++i)
        ts.allocate(rng.nextBounded(1 << 20) * 128, 1);
    EXPECT_LE(ts.occupancy(), ts.config().numLines());
}

TEST(TagStoreTest, MovesButNeverCopies)
{
    // The frame view points into the slab: a copy would share the
    // source's frames, so only moves exist, and a move keeps the lines.
    EXPECT_FALSE(std::is_copy_constructible_v<TagStore>);
    EXPECT_FALSE(std::is_copy_assignable_v<TagStore>);
    TagStore ts(smallConfig());
    ts.allocate(0x1000, 1);
    TagStore moved(std::move(ts));
    EXPECT_TRUE(moved.probe(0x1000).hit);
    EXPECT_FALSE(moved.probe(0x2000).hit);
}

/** Property sweep: working set <= capacity never misses after warmup. */
class TagStoreProperty
    : public ::testing::TestWithParam<
          std::tuple<unsigned, ReplacementPolicy>>
{
};

TEST_P(TagStoreProperty, ResidentWorkingSetAlwaysHits)
{
    const auto [assoc, policy] = GetParam();
    CacheConfig cfg{16 * KiB, assoc, 128, policy};
    TagStore ts(cfg);
    const std::uint64_t lines = cfg.numLines();
    // Sequential fill: addresses map uniformly, one per frame.
    for (std::uint64_t i = 0; i < lines; ++i)
        ts.allocate(i * 128, 1);
    EXPECT_EQ(ts.occupancy(), lines);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(ts.lookup(i * 128).hit) << "line " << i;
}

TEST_P(TagStoreProperty, EvictionConservesOccupancy)
{
    const auto [assoc, policy] = GetParam();
    CacheConfig cfg{8 * KiB, assoc, 128, policy};
    TagStore ts(cfg, 77);
    Rng rng(5);
    std::uint64_t fills = 0, evictions = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.nextBounded(4096) * 128;
        if (!ts.lookup(addr).hit) {
            const auto ev = ts.allocate(addr, 1);
            ++fills;
            evictions += ev.valid;
        }
    }
    EXPECT_EQ(ts.occupancy(), fills - evictions);
    EXPECT_LE(ts.occupancy(), cfg.numLines());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TagStoreProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(ReplacementPolicy::LRU,
                                         ReplacementPolicy::FIFO,
                                         ReplacementPolicy::Random)));

} // namespace
} // namespace memories::cache
