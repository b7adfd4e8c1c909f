#include "bus/bus6xx.hh"

#include <gtest/gtest.h>

namespace memories::bus
{
namespace
{

BusTransaction
txnOf(BusOp op, std::uint16_t size = 128)
{
    BusTransaction t;
    t.addr = 0x1000;
    t.op = op;
    t.size = size;
    return t;
}

TEST(DataBusTest, DataBearingOpsConsumeBeats)
{
    Bus6xx bus; // 16B per beat: a 128B line is 8 beats
    bus.issue(txnOf(BusOp::Read));
    EXPECT_EQ(bus.stats().dataCycles, 8u);
    bus.issue(txnOf(BusOp::WriteBack));
    EXPECT_EQ(bus.stats().dataCycles, 16u);
}

TEST(DataBusTest, AddressOnlyOpsConsumeNone)
{
    Bus6xx bus;
    bus.issue(txnOf(BusOp::DClaim));
    bus.issue(txnOf(BusOp::Kill));
    bus.issue(txnOf(BusOp::Sync));
    EXPECT_EQ(bus.stats().dataCycles, 0u);
}

TEST(DataBusTest, BeatCountScalesWithSizeAndWidth)
{
    Bus6xx bus; // 16B per beat, rounded up to whole beats
    bus.issue(txnOf(BusOp::Read, 128));
    EXPECT_EQ(bus.stats().dataCycles, 8u);
    bus.issue(txnOf(BusOp::Read, 1024));
    EXPECT_EQ(bus.stats().dataCycles, 8u + 64u);
    bus.issue(txnOf(BusOp::Read, 17));
    EXPECT_EQ(bus.stats().dataCycles, 8u + 64u + 2u);
}

TEST(DataBusTest, RetriedTenureTransfersNothing)
{
    class Retrier : public BusSnooper
    {
      public:
        SnoopResponse snoop(const BusTransaction &) override
        {
            return SnoopResponse::Retry;
        }
        std::string snooperName() const override { return "r"; }
    } retrier;

    Bus6xx bus;
    bus.attach(&retrier);
    bus.issue(txnOf(BusOp::Read));
    EXPECT_EQ(bus.stats().dataCycles, 0u);
}

TEST(DataBusTest, DataUtilizationMatchesPaperArithmetic)
{
    // One 128B read per 40 cycles: address util 2.5%, data util 20% -
    // the relationship behind the paper's "20% utilization" figures
    // and Table 3's effective 1e7 refs/s.
    Bus6xx bus;
    for (int i = 0; i < 100; ++i) {
        bus.issue(txnOf(BusOp::Read));
        bus.tick(39);
    }
    const auto elapsed = bus.now();
    EXPECT_NEAR(bus.stats().utilization(elapsed), 0.025, 1e-3);
    EXPECT_NEAR(bus.stats().dataUtilization(elapsed), 0.20, 1e-3);
}

} // namespace
} // namespace memories::bus
