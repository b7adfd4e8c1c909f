#include "host/hostcache.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"

namespace memories::host
{
namespace
{

cache::CacheConfig
l1Config()
{
    return cache::CacheConfig{8 * KiB, 2, 128,
                              cache::ReplacementPolicy::LRU};
}

cache::CacheConfig
l2Config()
{
    return cache::CacheConfig{64 * KiB, 4, 128,
                              cache::ReplacementPolicy::LRU};
}

HostCacheHierarchy
makeHierarchy()
{
    return HostCacheHierarchy(l1Config(), l2Config());
}

bus::BusTransaction
remoteTxn(Addr addr, bus::BusOp op)
{
    bus::BusTransaction txn;
    txn.addr = addr;
    txn.op = op;
    txn.cpu = 9; // some other CPU
    return txn;
}

TEST(HostCacheTest, RejectsBrokenInclusion)
{
    // L2 smaller than L1 or with smaller lines cannot be inclusive.
    EXPECT_THROW(HostCacheHierarchy(l2Config(), l1Config()), FatalError);

    auto small_line_l2 = l2Config();
    small_line_l2.lineSize = 64;
    auto l1 = l1Config();
    l1.lineSize = 128;
    EXPECT_THROW(HostCacheHierarchy(l1, small_line_l2), FatalError);
}

TEST(HostCacheTest, ColdReadNeedsBusRead)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, false);
    EXPECT_FALSE(res.hit);
    ASSERT_TRUE(res.need.has_value());
    EXPECT_EQ(res.need->op, bus::BusOp::Read);
    EXPECT_EQ(res.need->lineAddr, 0x1000u);
}

TEST(HostCacheTest, ColdWriteNeedsRwitm)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, true);
    ASSERT_TRUE(res.need.has_value());
    EXPECT_EQ(res.need->op, bus::BusOp::Rwitm);
}

TEST(HostCacheTest, FillMakesSubsequentAccessesHit)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, false);
    h.completeFill(*res.need, false, bus::SnoopResponse::None);
    EXPECT_TRUE(h.access(0x1000, false).hit);
    EXPECT_TRUE(h.residentInL1(0x1000));
    EXPECT_TRUE(h.residentInL2(0x1000));
}

TEST(HostCacheTest, ExclusiveFillAllowsSilentWrite)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, false);
    h.completeFill(*res.need, false, bus::SnoopResponse::None); // -> E
    // Write to an Exclusive line needs no bus transaction.
    EXPECT_TRUE(h.access(0x1000, true).hit);
}

TEST(HostCacheTest, SharedFillRequiresDClaimForWrite)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, false);
    h.completeFill(*res.need, false, bus::SnoopResponse::Shared); // -> S
    const auto w = h.access(0x1000, true);
    EXPECT_FALSE(w.hit);
    ASSERT_TRUE(w.need.has_value());
    EXPECT_EQ(w.need->op, bus::BusOp::DClaim);
    h.completeFill(*w.need, true, bus::SnoopResponse::None);
    EXPECT_TRUE(h.access(0x1000, true).hit);
    EXPECT_EQ(h.stats().l2Upgrades, 1u);
}

TEST(HostCacheTest, DirtyVictimProducesWriteback)
{
    // 64KB 4-way L2 with 128B lines: 128 sets; same-set stride 16KB.
    auto h = makeHierarchy();
    const std::uint64_t stride = 128 * 128 * 4 / 4; // sets*line = 16KB
    // Fill one set with 4 dirty lines, then force a 5th.
    for (int i = 0; i < 4; ++i) {
        const auto res = h.access(i * stride, true);
        ASSERT_TRUE(res.need.has_value());
        const auto wb =
            h.completeFill(*res.need, true, bus::SnoopResponse::None);
        EXPECT_FALSE(wb.has_value());
    }
    const auto res = h.access(4 * stride, true);
    ASSERT_TRUE(res.need.has_value());
    const auto wb =
        h.completeFill(*res.need, true, bus::SnoopResponse::None);
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(*wb % stride, 0u);
    EXPECT_EQ(h.stats().writebacks, 1u);
}

TEST(HostCacheTest, L2EvictionPurgesL1Inclusion)
{
    auto h = makeHierarchy();
    const std::uint64_t stride = 16 * KiB;
    const auto first = h.access(0, false);
    h.completeFill(*first.need, false, bus::SnoopResponse::None);
    EXPECT_TRUE(h.residentInL1(0));
    for (int i = 1; i <= 4; ++i) {
        const auto res = h.access(i * stride, false);
        h.completeFill(*res.need, false, bus::SnoopResponse::None);
    }
    // Line 0 was LRU in its L2 set: it must be gone from L1 as well.
    EXPECT_FALSE(h.residentInL2(0));
    EXPECT_FALSE(h.residentInL1(0));
}

TEST(HostCacheTest, SnoopReadOnModifiedIntervenes)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x2000, true);
    h.completeFill(*res.need, true, bus::SnoopResponse::None); // -> M
    const auto resp = h.snoop(remoteTxn(0x2000, bus::BusOp::Read));
    EXPECT_EQ(resp, bus::SnoopResponse::Modified);
    // Downgraded to Shared: a local write now needs an upgrade.
    const auto w = h.access(0x2000, true);
    ASSERT_TRUE(w.need.has_value());
    EXPECT_EQ(w.need->op, bus::BusOp::DClaim);
}

TEST(HostCacheTest, SnoopRwitmInvalidatesBothLevels)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x2000, false);
    h.completeFill(*res.need, false, bus::SnoopResponse::None);
    const auto resp = h.snoop(remoteTxn(0x2000, bus::BusOp::Rwitm));
    EXPECT_NE(resp, bus::SnoopResponse::None);
    EXPECT_FALSE(h.residentInL2(0x2000));
    EXPECT_FALSE(h.residentInL1(0x2000));
    EXPECT_EQ(h.stats().snoopInvalidations, 1u);
}

TEST(HostCacheTest, SnoopMissAnswersNone)
{
    auto h = makeHierarchy();
    EXPECT_EQ(h.snoop(remoteTxn(0x9000, bus::BusOp::Read)),
              bus::SnoopResponse::None);
}

TEST(HostCacheTest, SnoopIgnoresNonMemoryOps)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x2000, true);
    h.completeFill(*res.need, true, bus::SnoopResponse::None);
    EXPECT_EQ(h.snoop(remoteTxn(0x2000, bus::BusOp::IoRead)),
              bus::SnoopResponse::None);
    EXPECT_TRUE(h.residentInL2(0x2000));
}

TEST(HostCacheTest, SnoopWriteBackChangesNothing)
{
    // A remote cast-out answers None and leaves Modified, Exclusive and
    // Shared lines as they were, in both levels, with no count moved.
    auto h = makeHierarchy();
    const Addr m = 0x2000, e = 0x2080, s = 0x2100;
    h.completeFill(*h.access(m, true).need, true,
                   bus::SnoopResponse::None);
    h.completeFill(*h.access(e, false).need, false,
                   bus::SnoopResponse::None);
    h.completeFill(*h.access(s, false).need, false,
                   bus::SnoopResponse::Shared);
    const HierarchyStats before = h.stats();
    for (const Addr a : {m, e, s}) {
        EXPECT_EQ(h.snoop(remoteTxn(a, bus::BusOp::WriteBack)),
                  bus::SnoopResponse::None);
        EXPECT_TRUE(h.residentInL1(a));
        EXPECT_TRUE(h.residentInL2(a));
    }
    const HierarchyStats after = h.stats();
    EXPECT_EQ(after.refs, before.refs);
    EXPECT_EQ(after.l1Hits, before.l1Hits);
    EXPECT_EQ(after.l2Hits, before.l2Hits);
    EXPECT_EQ(after.l2Misses, before.l2Misses);
    EXPECT_EQ(after.writebacks, before.writebacks);
    EXPECT_EQ(after.snoopInvalidations, before.snoopInvalidations);
    EXPECT_EQ(after.snoopDowngrades, before.snoopDowngrades);

    // The states held: M still intervenes, E still downgrades (S
    // would not count one), S still needs its DClaim to write.
    EXPECT_EQ(h.snoop(remoteTxn(m, bus::BusOp::Read)),
              bus::SnoopResponse::Modified);
    EXPECT_EQ(h.snoop(remoteTxn(e, bus::BusOp::Read)),
              bus::SnoopResponse::Shared);
    EXPECT_EQ(h.stats().snoopDowngrades, before.snoopDowngrades + 2);
    const auto w = h.access(s, true);
    ASSERT_TRUE(w.need.has_value());
    EXPECT_EQ(w.need->op, bus::BusOp::DClaim);
}

TEST(HostCacheTest, NoL2ModeWorksAgainstL1Only)
{
    HostCacheHierarchy h(l1Config(), std::nullopt);
    EXPECT_FALSE(h.hasL2());
    EXPECT_EQ(h.busLineSize(), 128u);
    const auto res = h.access(0x3000, false);
    ASSERT_TRUE(res.need.has_value());
    h.completeFill(*res.need, false, bus::SnoopResponse::None);
    EXPECT_TRUE(h.access(0x3000, false).hit);
    EXPECT_FALSE(h.residentInL2(0x3000));
}

TEST(HostCacheTest, StatsTallyReadsAndWrites)
{
    auto h = makeHierarchy();
    h.access(0x1000, false);
    h.access(0x1000, true);
    h.access(0x2000, false);
    EXPECT_EQ(h.stats().refs, 3u);
    EXPECT_EQ(h.stats().reads, 2u);
    EXPECT_EQ(h.stats().writes, 1u);
}

TEST(HostCacheTest, L1HitAvoidsL2Machinery)
{
    auto h = makeHierarchy();
    const auto res = h.access(0x1000, false);
    h.completeFill(*res.need, false, bus::SnoopResponse::None);
    h.access(0x1000, false);
    EXPECT_EQ(h.stats().l1Hits, 1u);
    EXPECT_EQ(h.stats().l2Hits, 0u);
}

} // namespace
} // namespace memories::host
