#include "trace/lifecycle.hh"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/logging.hh"

namespace memories::trace
{
namespace
{

LifecycleEvent
eventAt(Addr addr, Cycle cycle, EventKind kind = EventKind::BusIssue)
{
    LifecycleEvent ev;
    ev.addr = addr;
    ev.cycle = cycle;
    ev.kind = kind;
    return ev;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwoMinimum16)
{
    EXPECT_EQ(FlightRecorder(1).capacity(), 16u);
    EXPECT_EQ(FlightRecorder(16).capacity(), 16u);
    EXPECT_EQ(FlightRecorder(17).capacity(), 32u);
    EXPECT_EQ(FlightRecorder(100).capacity(), 128u);
}

TEST(FlightRecorderTest, RecordAssignsMonotoneSequenceNumbers)
{
    FlightRecorder rec(16);
    for (int i = 0; i < 5; ++i)
        rec.record(eventAt(0x1000u + 128u * i, i));
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, i);
        EXPECT_EQ(events[i].addr, 0x1000u + 128u * i);
    }
    EXPECT_EQ(rec.recorded(), 5u);
    EXPECT_EQ(rec.overwritten(), 0u);
}

TEST(FlightRecorderTest, WrapDropsOldestFirstAndKeepsSeqMonotone)
{
    // The flight-recorder contract: when the ring wraps, exactly the
    // oldest events are lost, the retained window is contiguous, and
    // sequence numbers keep counting so the loss is quantified.
    FlightRecorder rec(16);
    for (std::uint64_t i = 0; i < 40; ++i)
        rec.record(eventAt(i, i));
    EXPECT_EQ(rec.recorded(), 40u);
    EXPECT_EQ(rec.size(), 16u);
    EXPECT_EQ(rec.overwritten(), 24u);

    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 16u);
    EXPECT_EQ(events.front().seq, 24u); // oldest retained = 40 - 16
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].seq, 24u + i); // contiguous, ascending
        EXPECT_EQ(events[i].addr, 24u + i);
    }
}

TEST(FlightRecorderTest, MarkStoresLabelAndRecordsEvent)
{
    FlightRecorder rec(16);
    rec.mark("warmup done", 123);
    rec.mark("phase 2", 456);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, EventKind::Mark);
    EXPECT_EQ(events[0].cycle, 123u);
    EXPECT_EQ(rec.markLabel(static_cast<std::size_t>(events[0].addr)),
              "warmup done");
    EXPECT_EQ(rec.markLabel(static_cast<std::size_t>(events[1].addr)),
              "phase 2");
}

TEST(FlightRecorderTest, MarkLabelsAreBoundedInCountAndLength)
{
    // Marks come from wire clients: an overlong label is refused and
    // only the newest maxMarkLabels labels are kept, so the labels of
    // marks the ring has long overwritten cannot pile up.
    constexpr std::size_t keep = FlightRecorder::maxMarkLabels;
    FlightRecorder rec(16);
    EXPECT_THROW(
        rec.mark(std::string(FlightRecorder::maxMarkLabelBytes + 1, 'x'),
                 1),
        FatalError);
    EXPECT_EQ(rec.recorded(), 0u);

    const std::string longest(FlightRecorder::maxMarkLabelBytes, 'y');
    rec.mark(longest, 2);
    EXPECT_EQ(rec.markLabel(0), longest);
    for (std::size_t i = 1; i <= keep; ++i)
        rec.mark("m" + std::to_string(i), 2 + i);
    EXPECT_EQ(rec.recorded(), keep + 1);
    EXPECT_EQ(rec.markLabel(0), "?"); // replaced by the newest
    EXPECT_EQ(rec.markLabel(1), "m1");
    EXPECT_EQ(rec.markLabel(keep), "m" + std::to_string(keep));
    EXPECT_EQ(rec.markLabel(keep + 1), "?"); // not yet recorded
    EXPECT_EQ(rec.snapshot().back().addr, keep);
}

TEST(FlightRecorderTest, AnomalyRecordsEventAndFiresHook)
{
    FlightRecorder rec(16);
    int fired = 0;
    LifecycleEvent seen;
    rec.onAnomaly([&](const FlightRecorder &r, const LifecycleEvent &ev) {
        ++fired;
        seen = ev;
        EXPECT_EQ(&r, &rec);
    });
    rec.notifyAnomaly(AnomalyKind::BusRetry, 77, 5);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(rec.anomalies(), 1u);
    EXPECT_EQ(seen.kind, EventKind::Anomaly);
    EXPECT_EQ(seen.cycle, 77u);
    EXPECT_EQ(seen.traceId, 5u);
    EXPECT_EQ(static_cast<AnomalyKind>(seen.arg0),
              AnomalyKind::BusRetry);
}

TEST(FlightRecorderTest, DescribeMentionsKindAndAddress)
{
    LifecycleEvent ev = eventAt(0x1f00, 42, EventKind::CacheMiss);
    ev.traceId = 9;
    const std::string text = ev.describe();
    EXPECT_NE(text.find(std::string(eventKindName(EventKind::CacheMiss))),
              std::string::npos);
    EXPECT_NE(text.find("1f00"), std::string::npos);
}

TEST(FlightRecorderTest, EventKindNamesAreDistinct)
{
    for (std::size_t a = 0; a < numEventKinds; ++a) {
        for (std::size_t b = a + 1; b < numEventKinds; ++b) {
            EXPECT_NE(eventKindName(static_cast<EventKind>(a)),
                      eventKindName(static_cast<EventKind>(b)));
        }
    }
}

TEST(FirstDivergenceTest, EquivalentStreamsIgnoringBoardAndSeqOffset)
{
    std::vector<LifecycleEvent> a, b;
    for (std::uint64_t i = 0; i < 8; ++i) {
        LifecycleEvent ev = eventAt(0x1000 + i, i);
        ev.seq = i;
        ev.board = 0;
        a.push_back(ev);
        ev.seq = 100 + i; // different start seq
        ev.board = 3;     // different board id
        b.push_back(ev);
    }
    EXPECT_EQ(firstDivergence(a, b), SIZE_MAX);
}

TEST(FirstDivergenceTest, ReportsFirstDifferingIndex)
{
    std::vector<LifecycleEvent> a, b;
    for (std::uint64_t i = 0; i < 8; ++i) {
        LifecycleEvent ev = eventAt(0x1000 + i, i);
        ev.seq = i;
        a.push_back(ev);
        b.push_back(ev);
    }
    b[5].addr = 0xdead;
    EXPECT_EQ(firstDivergence(a, b), 5u);
}

TEST(FirstDivergenceTest, PrefixReportsCommonLength)
{
    std::vector<LifecycleEvent> a, b;
    for (std::uint64_t i = 0; i < 8; ++i) {
        LifecycleEvent ev = eventAt(0x1000 + i, i);
        ev.seq = i;
        a.push_back(ev);
        if (i < 5)
            b.push_back(ev);
    }
    EXPECT_EQ(firstDivergence(a, b), 5u);
}

} // namespace
} // namespace memories::trace
