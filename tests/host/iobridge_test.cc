#include "host/iobridge.hh"

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "host/machine.hh"
#include "ies/board.hh"
#include "workload/synthetic.hh"

namespace memories::host
{
namespace
{

IoBridgeConfig
smallBridge()
{
    IoBridgeConfig cfg;
    cfg.dmaBase = workload::workloadBaseAddr;
    cfg.dmaBytes = 64 * KiB;
    cfg.seed = 5;
    return cfg;
}

TEST(IoBridgeTest, RejectsTinyDmaRegion)
{
    bus::Bus6xx bus;
    IoBridgeConfig cfg = smallBridge();
    cfg.dmaBytes = 64;
    EXPECT_THROW(IoBridge(cfg, bus), FatalError);
}

TEST(IoBridgeTest, RejectsALineNoTenureHolds)
{
    bus::Bus6xx bus;
    IoBridgeConfig cfg = smallBridge();
    cfg.lineBytes = bus::maxTransactionSize + 1;
    EXPECT_THROW(IoBridge(cfg, bus), FatalError);
}

TEST(IoBridgeTest, MixesDmaAndPio)
{
    bus::Bus6xx bus;
    IoBridge bridge(smallBridge(), bus);
    for (int i = 0; i < 10000; ++i) {
        bridge.step();
        bus.tick(10);
    }
    const auto &s = bridge.stats();
    EXPECT_GT(s.dmaReads, 1000u);
    EXPECT_GT(s.dmaWrites, 1000u);
    EXPECT_GT(s.pioOps, 500u);
    EXPECT_EQ(s.dmaReads + s.dmaWrites + s.pioOps, 10000u);
}

TEST(IoBridgeTest, DmaIsSequentialAndWraps)
{
    bus::Bus6xx bus;

    class AddrRecorder : public bus::BusSnooper
    {
      public:
        bus::SnoopResponse
        snoop(const bus::BusTransaction &txn) override
        {
            if (bus::isMemoryOp(txn.op))
                addrs.push_back(txn.addr);
            return bus::SnoopResponse::None;
        }
        std::string snooperName() const override { return "rec"; }
        std::vector<Addr> addrs;
    } recorder;
    bus.attach(&recorder);

    IoBridgeConfig cfg = smallBridge();
    cfg.pioFrac = 0.0;
    IoBridge bridge(cfg, bus);
    for (int i = 0; i < 600; ++i)
        bridge.step();

    ASSERT_GE(recorder.addrs.size(), 600u);
    for (std::size_t i = 1; i < 512; ++i) {
        EXPECT_EQ(recorder.addrs[i],
                  cfg.dmaBase + (i * 128) % cfg.dmaBytes);
    }
}

TEST(IoBridgeTest, DmaWritesInvalidateCpuCaches)
{
    workload::UniformWorkload wl(2, 64 * KiB, 0.0, 3);
    HostConfig host_cfg;
    host_cfg.numCpus = 2;
    host_cfg.l1 = cache::CacheConfig{8 * KiB, 2, 128,
                                     cache::ReplacementPolicy::LRU};
    host_cfg.l2 = cache::CacheConfig{64 * KiB, 4, 128,
                                     cache::ReplacementPolicy::LRU};
    HostMachine machine(host_cfg, wl);
    machine.run(20000); // CPUs cache the whole region

    IoBridgeConfig io_cfg = smallBridge();
    io_cfg.pioFrac = 0.0;
    io_cfg.writeFrac = 1.0; // inbound DMA only
    IoBridge bridge(io_cfg, machine.bus());
    const auto inv_before = machine.totalStats().snoopInvalidations;
    for (int i = 0; i < 512; ++i) { // one pass over the region
        bridge.step();
        machine.bus().tick(10);
    }
    EXPECT_GT(machine.totalStats().snoopInvalidations, inv_before);
}

TEST(IoBridgeTest, DmaWritesInvalidateEmulatedDirectory)
{
    bus::Bus6xx bus;
    ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(bus);

    // A CPU load fills the emulated cache...
    bus::BusTransaction read;
    read.addr = workload::workloadBaseAddr;
    read.op = bus::BusOp::Read;
    read.cpu = 0;
    bus.issue(read);
    bus.tick(1000);

    // ...then inbound DMA overwrites the buffer.
    IoBridgeConfig io_cfg = smallBridge();
    io_cfg.pioFrac = 0.0;
    io_cfg.writeFrac = 1.0;
    IoBridge bridge(io_cfg, bus);
    bridge.step();
    board.drainAll();

    EXPECT_EQ(board.node(0).probeState(workload::workloadBaseAddr),
              protocol::LineState::Invalid);
}

TEST(IoBridgeTest, PioTrafficIsFilteredByBoard)
{
    bus::Bus6xx bus;
    ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{2 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(bus);

    IoBridgeConfig io_cfg = smallBridge();
    io_cfg.pioFrac = 1.0;
    IoBridge bridge(io_cfg, bus);
    for (int i = 0; i < 100; ++i)
        bridge.step();
    board.drainAll();

    EXPECT_EQ(board.globalCounters().valueByName(
                  "global.tenures.filtered"), 100u);
    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
}

} // namespace
} // namespace memories::host
