#include "ies/board.hh"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "common/logging.hh"

namespace memories::ies
{
namespace
{

cache::CacheConfig
smallCache()
{
    return cache::CacheConfig{2 * MiB, 4, 128,
                              cache::ReplacementPolicy::LRU};
}

bus::BusTransaction
txn(Addr addr, bus::BusOp op, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.op = op;
    t.cpu = cpu;
    return t;
}

TEST(BoardConfigTest, ValidatesNodeCount)
{
    BoardConfig cfg;
    EXPECT_THROW(cfg.validate(), FatalError); // no nodes

    cfg = makeUniformBoard(9, 1, smallCache());
    EXPECT_THROW(cfg.validate(), FatalError); // > 2 boards
}

TEST(BoardConfigTest, MoreThanFourNodesWarnsButWorks)
{
    setLoggingQuiet(true);
    auto cfg = makeUniformBoard(8, 1, smallCache());
    EXPECT_NO_THROW(cfg.validate());
    setLoggingQuiet(false);
}

TEST(BoardConfigTest, RejectsOverSizedDirectory)
{
    // 8GB with 128B lines is exactly the budget; 8GB with 128B lines
    // on every node is fine, but 8GB with 64B lines is not even a
    // legal board geometry - use 16KB lines at 8GB (tiny directory)
    // versus an illegal large-directory config instead.
    BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    cfg.nodes[0].cache =
        cache::CacheConfig{8 * GiB, 8, 128, cache::ReplacementPolicy::LRU};
    EXPECT_NO_THROW(cfg.validate()); // exactly 256MB of directory
}

TEST(BoardConfigTest, RejectsDuplicateCpuInMachine)
{
    BoardConfig cfg = makeUniformBoard(2, 2, smallCache());
    cfg.nodes[1].cpus = {1, 4}; // CPU 1 already in node 0
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(BoardConfigTest, SameCpuAcrossMachinesIsLegal)
{
    // Figure 4: different target machines emulate the same CPUs.
    auto cfg = makeMultiConfigBoard({smallCache(), smallCache()}, 4);
    EXPECT_NO_THROW(cfg.validate());
}

TEST(BoardConfigTest, RejectsNineCpusPerNode)
{
    BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    cfg.nodes[0].cpus.push_back(8); // ninth CPU
    EXPECT_THROW(cfg.validate(), FatalError);
}

TEST(BoardTest, EmulatesViaBusSnooping)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);

    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    bus.tick(1000);
    bus.issue(txn(0x1000, bus::BusOp::Read, 1));
    board.drainAll();

    const auto s = board.node(0).stats();
    EXPECT_EQ(s.localRefs, 2u);
    EXPECT_EQ(s.localMisses, 1u);
    EXPECT_EQ(s.localHits, 1u);
}

TEST(BoardTest, FiltersNonMemoryOps)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);

    bus.issue(txn(0x1000, bus::BusOp::IoRead, 0));
    bus.issue(txn(0x1000, bus::BusOp::Interrupt, 0));
    bus.issue(txn(0x1000, bus::BusOp::Sync, 0));
    board.drainAll();

    EXPECT_EQ(board.globalCounters().valueByName(
                  "global.tenures.filtered"), 3u);
    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
}

TEST(BoardTest, MultiNodeInterventions)
{
    // Two nodes of one target machine: node 0's modified line answers
    // node 1's read with a modified intervention.
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(2, 4, smallCache()));
    board.plugInto(bus);

    bus.issue(txn(0x8000, bus::BusOp::Rwitm, 0)); // node 0 takes M
    bus.tick(1000);
    bus.issue(txn(0x8000, bus::BusOp::Read, 4));  // node 1 reads
    board.drainAll();

    const auto s1 = board.node(1).stats();
    EXPECT_EQ(s1.satisfiedByModIntervention, 1u);
    EXPECT_EQ(board.node(0).stats().suppliedModified, 1u);
    // MESI: the supplier is downgraded to Shared.
    EXPECT_EQ(board.node(0).probeState(0x8000),
              protocol::LineState::Shared);
}

TEST(BoardTest, MultiConfigNodesNeverInteract)
{
    // Figure 4 mode: the same traffic measured against two geometries;
    // the two nodes are alternative universes and must not snoop each
    // other.
    bus::Bus6xx bus;
    MemoriesBoard board(
        makeMultiConfigBoard({smallCache(), smallCache()}, 8));
    board.plugInto(bus);

    bus.issue(txn(0x8000, bus::BusOp::Rwitm, 0));
    bus.tick(1000);
    bus.issue(txn(0x8000, bus::BusOp::Read, 1));
    board.drainAll();

    for (std::size_t n = 0; n < 2; ++n) {
        const auto s = board.node(n).stats();
        EXPECT_EQ(s.localRefs, 2u) << "node " << n;
        EXPECT_EQ(s.satisfiedByModIntervention, 0u) << "node " << n;
        EXPECT_EQ(s.suppliedModified, 0u) << "node " << n;
    }
}

TEST(BoardTest, IdenticalConfigsSeeIdenticalStats)
{
    bus::Bus6xx bus;
    MemoriesBoard board(
        makeMultiConfigBoard({smallCache(), smallCache()}, 8));
    board.plugInto(bus);

    for (int i = 0; i < 2000; ++i) {
        bus.issue(txn((i % 64) * 4096, i % 3 == 0 ? bus::BusOp::Rwitm
                                                  : bus::BusOp::Read,
                      static_cast<CpuId>(i % 8)));
        bus.tick(4);
    }
    board.drainAll();

    const auto a = board.node(0).stats();
    const auto b = board.node(1).stats();
    EXPECT_EQ(a.localRefs, b.localRefs);
    EXPECT_EQ(a.localHits, b.localHits);
    EXPECT_EQ(a.localMisses, b.localMisses);
}

TEST(BoardTest, DroppedOnExternalRetry)
{
    // A tenure retried by another agent must not be emulated.
    class Retrier : public bus::BusSnooper
    {
      public:
        bus::SnoopResponse
        snoop(const bus::BusTransaction &) override
        {
            return bus::SnoopResponse::Retry;
        }
        std::string snooperName() const override { return "retrier"; }
    };

    bus::Bus6xx bus;
    Retrier retrier;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    bus.attach(&retrier);
    board.plugInto(bus);

    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    board.drainAll();

    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
    EXPECT_EQ(board.globalCounters().valueByName(
                  "global.tenures.dropped_retry"), 1u);
}

TEST(BoardTest, PostsRetryOnBufferOverflow)
{
    // A tiny buffer and a burst far above the SDRAM rate must trip
    // the board's only non-passive behaviour.
    BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    cfg.bufferEntries = 4;
    bus::Bus6xx bus;
    MemoriesBoard board(cfg);
    board.plugInto(bus);

    bus::SnoopResponse worst = bus::SnoopResponse::None;
    for (int i = 0; i < 64; ++i) {
        const auto resp = bus.issue(txn(0x1000u + 128u * i,
                                        bus::BusOp::Read, 0));
        worst = bus::combineSnoop(worst, resp);
    }
    EXPECT_EQ(worst, bus::SnoopResponse::Retry);
    EXPECT_GT(board.retriesPosted(), 0u);
}

TEST(BoardTest, AdmissiblePrefixStopsAtTheFirstRefusal)
{
    // The admission walk must name exactly the record a hook-free
    // board refuses first. Two identical boards take the same random
    // history; then one walks a random line and the other is fed it.
    std::mt19937_64 rng(16);
    const auto pick = [&](std::uint64_t lo, std::uint64_t hi) {
        return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
    };
    constexpr std::size_t maxLine = 40;
    const auto randomLine = [&](Cycle &cycle, std::size_t n) {
        std::vector<bus::BusTransaction> line;
        for (std::size_t i = 0; i < n; ++i) {
            if (pick(0, 2) != 0) // same-cycle runs are common
                cycle += pick(0, 5);
            bus::BusTransaction t =
                txn(pick(0, 1023) * 128,
                    pick(0, 9) == 0 ? bus::BusOp::IoRead
                                    : bus::BusOp::Read,
                    static_cast<CpuId>(pick(0, 3)));
            t.cycle = cycle;
            line.push_back(t);
        }
        return line;
    };
    std::size_t cut = 0;
    constexpr int trials = 200;
    for (int trial = 0; trial < trials; ++trial) {
        BoardConfig cfg = makeUniformBoard(1, 4, smallCache());
        cfg.bufferEntries = pick(1, 12);
        cfg.sdramThroughputPercent = static_cast<unsigned>(pick(10, 60));
        MemoriesBoard walked(cfg), fed(cfg);
        Cycle cycle = 0;
        const auto history = randomLine(cycle, pick(0, maxLine));
        walked.feedBatch(history);
        fed.feedBatch(history);

        const auto line = randomLine(cycle, pick(1, maxLine));
        bool accepted[maxLine];
        fed.feedBatch(line.data(), line.size(), accepted);
        const std::size_t first = static_cast<std::size_t>(
            std::find(accepted, accepted + line.size(), false) -
            accepted);
        ASSERT_EQ(walked.admissiblePrefix(line.data(), line.size()),
                  first)
            << "trial " << trial;
        ASSERT_EQ(walked.feedBatch(line.data(), first), first)
            << "trial " << trial;
        cut += first < line.size();
    }
    // Both outcomes are exercised: lines cut short and lines whole.
    EXPECT_GT(cut, std::size_t{trials / 10});
    EXPECT_LT(cut, std::size_t{trials * 9 / 10});
}

TEST(BoardTest, NeverRetriesAtPaperUtilization)
{
    // Paper section 3.3: at 2-20% utilization the board never posted
    // a retry. One tenure per 5 cycles = 20%.
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(4, 2, smallCache()));
    board.plugInto(bus);

    for (int i = 0; i < 50'000; ++i) {
        bus.issue(txn((i % 4096) * 128, bus::BusOp::Read,
                      static_cast<CpuId>(i % 8)));
        bus.tick(4);
    }
    board.drainAll();
    EXPECT_EQ(board.retriesPosted(), 0u);
}

TEST(BoardTest, TraceCaptureRecordsCommittedTenures)
{
    BoardConfig cfg = makeUniformBoard(1, 8, smallCache());
    cfg.traceCapture = true;
    cfg.traceCaptureRecords = 1024;
    bus::Bus6xx bus;
    MemoriesBoard board(cfg);
    board.plugInto(bus);

    for (int i = 0; i < 10; ++i) {
        bus.issue(txn(0x1000u + 128u * i, bus::BusOp::Read, 0));
        bus.tick(10);
    }
    bus.issue(txn(0, bus::BusOp::IoRead, 0)); // filtered: not captured
    board.drainAll();

    ASSERT_NE(board.captureBuffer(), nullptr);
    EXPECT_EQ(board.captureBuffer()->size(), 10u);
}

TEST(BoardTest, ResetColdStartsDirectories)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);
    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    board.drainAll();
    EXPECT_EQ(board.node(0).directoryOccupancy(), 1u);
    board.reset();
    EXPECT_EQ(board.node(0).directoryOccupancy(), 0u);
    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
}

TEST(BoardTest, DumpStatsMentionsEveryNode)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(2, 4, smallCache()));
    const auto dump = board.dumpStats();
    EXPECT_NE(dump.find("node 0"), std::string::npos);
    EXPECT_NE(dump.find("node 1"), std::string::npos);
    EXPECT_NE(dump.find("MESI"), std::string::npos);
}

TEST(BoardTest, UnpluggedBoardSeesNothing)
{
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 8, smallCache()));
    board.plugInto(bus);
    board.unplug(bus);
    bus.issue(txn(0x1000, bus::BusOp::Read, 0));
    board.drainAll();
    EXPECT_EQ(board.node(0).stats().localRefs, 0u);
}

TEST(BoardTest, UnmappedCpuTrafficSnoopsAllNodes)
{
    // Traffic from bus masters outside any node (I/O bridges) still
    // invalidates emulated lines, like real coherent DMA.
    bus::Bus6xx bus;
    MemoriesBoard board(makeUniformBoard(1, 4, smallCache()));
    board.plugInto(bus);

    bus.issue(txn(0x5000, bus::BusOp::Read, 0));
    bus.tick(1000);
    bus.issue(txn(0x5000, bus::BusOp::WriteKill, 12)); // unmapped CPU
    board.drainAll();

    EXPECT_EQ(board.node(0).probeState(0x5000),
              protocol::LineState::Invalid);
}

TEST(BoardConfigTest, ValidationErrorsEmptyForGoodConfig)
{
    EXPECT_TRUE(
        makeUniformBoard(2, 4, smallCache()).validationErrors().empty());
}

TEST(BoardConfigTest, ValidationErrorsCollectsEveryProblem)
{
    // One broken config, many independent problems: the collector must
    // report them all instead of unwinding at the first like validate().
    BoardConfig cfg = makeUniformBoard(2, 4, smallCache());
    cfg.bufferEntries = 0;                // problem 1
    cfg.sdramThroughputPercent = 101;     // problem 2
    cfg.nodes[0].cpus = {};               // problem 3
    cfg.nodes[1].cpus.push_back(20);      // problem 4: beyond host bus

    const auto errors = cfg.validationErrors();
    ASSERT_EQ(errors.size(), 4u);

    auto contains = [&errors](const std::string &needle) {
        for (const std::string &e : errors)
            if (e.find(needle) != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(contains("transaction buffer depth"));
    EXPECT_TRUE(contains("SDRAM throughput percent"));
    EXPECT_TRUE(contains("node 0 has no CPUs"));
    EXPECT_TRUE(contains("node 1 references CPU 20 beyond the host bus"));
}

TEST(BoardConfigTest, ValidateReportsAllProblemsInOneThrow)
{
    BoardConfig cfg = makeUniformBoard(1, 4, smallCache());
    cfg.bufferEntries = 0;
    cfg.sdramThroughputPercent = 0;
    try {
        cfg.validate();
        FAIL() << "validate() should have thrown";
    } catch (const FatalError &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("2 problems"), std::string::npos);
        EXPECT_NE(what.find("transaction buffer depth"),
                  std::string::npos);
        EXPECT_NE(what.find("SDRAM throughput percent"),
                  std::string::npos);
    }
}

} // namespace
} // namespace memories::ies
