/**
 * @file
 * Golden equivalence suite for the fan-out engine: a board fed through
 * ExperimentFleet must produce *bit-identical* node counters to the
 * same board plugged directly into the host bus — for every
 * configuration in the sweep, for 1/2/8 worker threads, and through
 * the offline trace-replay path.
 *
 * The serial baselines re-run the identical workload seed once per
 * configuration (the hardware board's one-config-per-run methodology);
 * the fleet runs it once for all configurations. Equality of every
 * counter in every node's CounterBank is the proof that the fan-out
 * ring preserves the committed-tenure order per board.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "host/machine.hh"
#include "ies/analysis.hh"
#include "ies/board.hh"
#include "ies/fanout.hh"
#include "trace/tracefile.hh"
#include "workload/synthetic.hh"

namespace memories::ies
{
namespace
{

constexpr std::uint64_t kRefs = 120'000;
constexpr std::uint64_t kWorkloadSeed = 11;
constexpr std::uint64_t kBoardSeed = 99;

host::HostConfig
testHost()
{
    host::HostConfig cfg;
    cfg.numCpus = 8;
    // Small host L2s so plenty of traffic reaches the bus, paced to
    // the paper's 2-20% utilization band so the boards never overflow
    // their transaction buffers (overflow is the documented point of
    // serial/fleet divergence).
    cfg.l2 = cache::CacheConfig{512 * KiB, 4, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.cyclesPerRef = 6;
    return cfg;
}

std::unique_ptr<workload::Workload>
testWorkload()
{
    return std::make_unique<workload::ZipfWorkload>(8, 4096, 4096, 0.8,
                                                    0.3, kWorkloadSeed);
}

/** A heterogeneous 4-configuration sweep: sizes, ways, protocols. */
std::vector<BoardConfig>
sweepConfigs()
{
    using cache::CacheConfig;
    using cache::ReplacementPolicy;
    std::vector<BoardConfig> cfgs;
    cfgs.push_back(makeUniformBoard(
        2, 4, CacheConfig{2 * MiB, 4, 128, ReplacementPolicy::LRU},
        "MESI"));
    cfgs.push_back(makeUniformBoard(
        2, 4, CacheConfig{4 * MiB, 8, 128, ReplacementPolicy::LRU},
        "MOESI"));
    cfgs.push_back(makeUniformBoard(
        2, 4, CacheConfig{8 * MiB, 1, 128, ReplacementPolicy::LRU},
        "MSI"));
    cfgs.push_back(makeUniformBoard(
        4, 2, CacheConfig{16 * MiB, 4, 128, ReplacementPolicy::LRU},
        "MESI"));
    return cfgs;
}

/** Every node counter plus directory occupancy, rendered bit-for-bit. */
std::string
fingerprint(const MemoriesBoard &board)
{
    std::ostringstream os;
    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        os << "node " << n << "\n";
        board.node(n).counters().snapshot(
            [&os](const memories::CounterSample &s) {
                os << s.name << " " << s.value << "\n";
            });
        os << "occupancy " << board.node(n).directoryOccupancy()
           << "\n";
    }
    return os.str();
}

struct SerialBaseline
{
    std::vector<std::string> fingerprints; //!< one per configuration
    std::uint64_t committed = 0; //!< committed tenures per run (equal)
    std::string tracePath;       //!< committed stream of run 0
};

/** One direct-plugged run per configuration over the same workload. */
const SerialBaseline &
serialBaseline()
{
    static const SerialBaseline baseline = [] {
        SerialBaseline out;
        // Per process: ctest runs the worker-count instances in
        // parallel, and a shared path let one overwrite the trace
        // another was replaying.
        out.tracePath = ::testing::TempDir() + "fanout_equiv_" +
                        std::to_string(::getpid()) + ".trace";
        const auto cfgs = sweepConfigs();
        for (std::size_t i = 0; i < cfgs.size(); ++i) {
            BoardConfig cfg = cfgs[i];
            if (i == 0)
                cfg.traceCapture = true; // capture the committed stream
            auto wl = testWorkload();
            host::HostMachine machine(testHost(), *wl);
            auto board = MemoriesBoard::make(cfg, kBoardSeed);
            board->plugInto(machine.bus());
            machine.run(kRefs);
            board->drainAll();
            EXPECT_EQ(board->retriesPosted(), 0u)
                << "test traffic must stay below buffer overflow";
            out.fingerprints.push_back(fingerprint(*board));
            out.committed = board->globalCounters().valueByName(
                "global.tenures.committed");
            if (i == 0) {
                EXPECT_NE(board->captureBuffer(), nullptr);
                if (board->captureBuffer() != nullptr) {
                    EXPECT_EQ(board->captureBuffer()->dropped(), 0u);
                    board->captureBuffer()->dumpToFile(out.tracePath);
                }
            }
        }
        return out;
    }();
    // The trace outlives every test of this process, not the process.
    static const struct TraceFileGuard
    {
        std::string path;
        ~TraceFileGuard() { std::remove(path.c_str()); }
    } guard{baseline.tracePath};
    return baseline;
}

class FanoutEquivTest : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FanoutEquivTest, LiveFleetMatchesSerialBitExact)
{
    const std::size_t workers = GetParam();
    const auto &baseline = serialBaseline();
    const auto cfgs = sweepConfigs();

    auto wl = testWorkload();
    host::HostMachine machine(testHost(), *wl);
    ExperimentFleet fleet;
    for (const auto &cfg : cfgs)
        fleet.addExperiment(cfg, kBoardSeed);
    fleet.attach(machine.bus());
    EXPECT_EQ(machine.bus().observerCount(), 1u);
    fleet.start(workers);
    machine.run(kRefs);
    fleet.finish();
    EXPECT_EQ(machine.bus().observerCount(), 0u)
        << "finish() must detach the tap";

    // The tap saw exactly the committed stream the serial boards saw.
    EXPECT_EQ(fleet.eventsPublished(), baseline.committed);
    EXPECT_EQ(fleet.tapRetryDropped(), 0u);

    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fleet.overflowDrops(i), 0u) << "board " << i;
        EXPECT_EQ(fleet.eventsConsumed(i), fleet.eventsPublished())
            << "board " << i;
        EXPECT_EQ(fingerprint(fleet.board(i)), baseline.fingerprints[i])
            << "config " << i << " diverged with " << workers
            << " workers";
    }
}

TEST_P(FanoutEquivTest, OfflineReplayMatchesSerialBitExact)
{
    const std::size_t workers = GetParam();
    const auto &baseline = serialBaseline();
    const auto cfgs = sweepConfigs();

    ExperimentFleet fleet;
    for (const auto &cfg : cfgs)
        fleet.addExperiment(cfg, kBoardSeed);
    fleet.replayFile(baseline.tracePath, workers);

    EXPECT_EQ(fleet.eventsPublished(), baseline.committed);
    for (std::size_t i = 0; i < cfgs.size(); ++i) {
        EXPECT_EQ(fleet.overflowDrops(i), 0u) << "board " << i;
        EXPECT_EQ(fingerprint(fleet.board(i)), baseline.fingerprints[i])
            << "config " << i << " diverged in offline replay with "
            << workers << " workers";
    }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, FanoutEquivTest,
                         ::testing::Values<std::size_t>(1, 2, 8));

TEST(FanoutFleetTest, BackpressureSurfacesAsCountersNotPerturbation)
{
    // A one-slot ring forces the producer to stall behind the boards on
    // every event; the host stream must be byte-identical anyway.
    FleetOptions opts;
    opts.ringCapacity = 1;
    opts.batchSize = 1;

    // L2s off: nearly every reference commits, so back-to-back commits
    // land a cycle apart and the one-slot ring cannot keep up.
    host::HostConfig host_cfg = testHost();
    host_cfg.l2.reset();

    auto wl_tapped = testWorkload();
    host::HostMachine tapped(host_cfg, *wl_tapped);
    ExperimentFleet fleet(opts);
    fleet.addExperiment(sweepConfigs()[0], kBoardSeed);
    fleet.attach(tapped.bus());
    fleet.start(1);
    tapped.run(20'000);
    fleet.finish();

    auto wl_bare = testWorkload();
    host::HostMachine bare(host_cfg, *wl_bare);
    bare.run(20'000);

    EXPECT_EQ(tapped.bus().stats().tenures, bare.bus().stats().tenures);
    EXPECT_EQ(tapped.bus().stats().retries, bare.bus().stats().retries);
    EXPECT_GT(fleet.backpressureStalls(0), 0u)
        << "a one-slot ring must have stalled the producer";
}

TEST(FanoutFleetTest, FleetStatsDumpMentionsEveryBoard)
{
    ExperimentFleet fleet;
    fleet.addExperiment(sweepConfigs()[0], kBoardSeed, "tiny");
    fleet.addExperiment(sweepConfigs()[1], kBoardSeed);
    fleet.start(2);
    fleet.publish(bus::BusTransaction{0x1000, 0, bus::BusOp::Read, 0,
                                      128, false});
    fleet.finish();
    const std::string text = FleetReport::capture(fleet).toText();
    EXPECT_NE(text.find("tiny: consumed 1"), std::string::npos) << text;
    EXPECT_NE(text.find("experiment1: consumed 1"), std::string::npos)
        << text;
    EXPECT_EQ(fleet.eventsConsumed(0), 1u);
    EXPECT_EQ(fleet.eventsConsumed(1), 1u);
}

TEST(FanoutFleetTest, StartRefusesBoardsThatShareARecorder)
{
    // A recorder has one writer thread: two workers, or a worker and
    // the host thread driving the tapped bus, must not share one.
    trace::FlightRecorder shared(1 << 10);
    {
        ExperimentFleet fleet;
        fleet.addExperiment(sweepConfigs()[0], kBoardSeed);
        fleet.addExperiment(sweepConfigs()[1], kBoardSeed);
        fleet.attachFlightRecorder(0, shared);
        fleet.attachFlightRecorder(1, shared);
        EXPECT_THROW(fleet.start(2), FatalError);
        EXPECT_FALSE(fleet.running());
    }
    {
        bus::Bus6xx bus;
        bus.attachFlightRecorder(shared);
        ExperimentFleet fleet;
        fleet.addExperiment(sweepConfigs()[0], kBoardSeed);
        fleet.attachFlightRecorder(0, shared);
        fleet.attach(bus);
        EXPECT_THROW(fleet.start(1), FatalError);
        EXPECT_FALSE(fleet.running());
        fleet.detach(bus);
    }
    EXPECT_EQ(shared.recorded(), 0u);

    // One recorder per board, and another on the bus, is the contract.
    trace::FlightRecorder own(1 << 10);
    bus::Bus6xx bus;
    bus.attachFlightRecorder(shared);
    ExperimentFleet fleet;
    fleet.addExperiment(sweepConfigs()[0], kBoardSeed);
    fleet.attachFlightRecorder(0, own);
    fleet.attach(bus);
    fleet.start(1);
    fleet.publish(bus::BusTransaction{0x1000, 0, bus::BusOp::Read, 0,
                                      128, false});
    fleet.finish();
    EXPECT_GT(own.recorded(), 0u);
}

TEST(FanoutFleetTest, DamagedTraceFailsBeforeAnyWorkerStarts)
{
    // The whole trace is read and checked before start(): a damaged
    // capture replays nothing rather than a different stream.
    const std::string path = ::testing::TempDir() + "fanout_damaged_" +
                             std::to_string(::getpid()) + ".trace";
    std::vector<bus::BusTransaction> stream;
    for (Cycle c = 0; c < 64; ++c) {
        stream.push_back(bus::BusTransaction{0x1000 + 128 * c, c,
                                             bus::BusOp::Read, 0, 128,
                                             false});
    }
    trace::writeBusTrace(path, stream);
    auto bytes = ckpt::readFileBytes(path, "trace");
    bytes.back() ^= 0x01; // the last record's cycle delta
    ckpt::atomicWriteFile(path, bytes.data(), bytes.size());

    ExperimentFleet fleet;
    fleet.addExperiment(sweepConfigs()[0], kBoardSeed);
    EXPECT_THROW(fleet.replayFile(path, 2), FatalError);
    EXPECT_FALSE(fleet.running());
    EXPECT_EQ(fleet.eventsPublished(), 0u);
    std::remove(path.c_str());
}

} // namespace
} // namespace memories::ies
