/**
 * @file
 * Machine lanes equal the serial board. A board whose nodes form two or
 * more target machines, with nothing watching, emulates each machine
 * on a lane thread (MemoriesBoard class comment). The reference is the
 * same run with a FlightRecorder attached: recording forces the serial
 * path and changes no emulated byte. Every node counter, directory and
 * checkpoint byte must match, at the end of a run, between run slices,
 * and across mid-run switches taken while the lanes hold a backlog.
 */

#include <sched.h>

#include <chrono>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bus/bus6xx.hh"
#include "checkpoint/file.hh"
#include "common/random.hh"
#include "fault/injector.hh"
#include "host/machine.hh"
#include "ies/board.hh"
#include "telemetry/sampler.hh"
#include "trace/lifecycle.hh"
#include "workload/oltp.hh"

namespace memories
{
namespace
{

/**
 * Threads of this process, from /proc/self/status. The first call
 * starts and joins one thread, so a runtime that adds a helper thread
 * at the process's first thread creation (ThreadSanitizer does) has
 * it before any count is taken.
 */
int
threadCount()
{
    static const bool warmed = [] {
        std::thread([] {}).join();
        return true;
    }();
    (void)warmed;
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "Threads:") {
            int n = 0;
            status >> n;
            return n;
        }
        status.ignore(1 << 12, '\n');
    }
    return -1;
}

/**
 * threadCount() once it holds still: pthread_join returns when a lane
 * clears its thread id, a moment before the kernel drops the thread
 * from the process's count. Running lanes wait on the ring and hold
 * still too, so a missed stop point still reads high.
 */
int
settledThreads()
{
    int n = threadCount();
    for (int i = 0; i < 2000; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const int m = threadCount();
        if (m == n)
            return n;
        n = m;
    }
    return n;
}

/** CPUs this thread may run on. */
int
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return 1;
    return CPU_COUNT(&set);
}

/** A Figure 4 board: four geometries, each its own target machine. */
ies::BoardConfig
fig4Config()
{
    using cache::CacheConfig;
    using cache::ReplacementPolicy;
    return ies::makeMultiConfigBoard(
        {CacheConfig{2 * MiB, 4, 128, ReplacementPolicy::LRU},
         CacheConfig{4 * MiB, 4, 128, ReplacementPolicy::TreePLRU},
         CacheConfig{2 * MiB, 8, 128, ReplacementPolicy::Random},
         CacheConfig{8 * MiB, 8, 128, ReplacementPolicy::LRU}},
        8);
}

host::HostConfig
smallHost()
{
    host::HostConfig cfg;
    cfg.numCpus = 8;
    cfg.l1 = cache::CacheConfig{8 * KiB, 2, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.l2 = cache::CacheConfig{64 * KiB, 4, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.cyclesPerRef = 4;
    return cfg;
}

workload::OltpParams
oltpParams()
{
    workload::OltpParams p;
    p.threads = 8;
    p.dbBytes = 16 * MiB;
    p.seed = 11;
    return p;
}

/** Checkpoint bytes of @p board. */
std::vector<std::uint8_t>
stateBytes(const ies::MemoriesBoard &board)
{
    ckpt::CheckpointWriter writer;
    board.saveState(writer);
    return writer.bytes(board.config().fingerprint());
}

/** Every emulated byte of @p a equals @p b's. */
void
expectSameBoard(const ies::MemoriesBoard &a, const ies::MemoriesBoard &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    EXPECT_EQ(a.dumpCounters(), b.dumpCounters());
    for (std::size_t n = 0; n < a.numNodes(); ++n) {
        EXPECT_EQ(a.node(n).directorySnapshot(),
                  b.node(n).directorySnapshot())
            << "node " << n;
    }
    EXPECT_EQ(stateBytes(a), stateBytes(b));
}

/**
 * One OLTP host driving a board, plus the same host and board with a
 * flight recorder attached: the serial reference.
 */
struct HostPair
{
    workload::OltpWorkload laneLoad{oltpParams()};
    workload::OltpWorkload serialLoad{oltpParams()};
    host::HostMachine laneHost{smallHost(), laneLoad};
    host::HostMachine serialHost{smallHost(), serialLoad};
    ies::MemoriesBoard lanes;
    ies::MemoriesBoard serial;
    trace::FlightRecorder recorder{1024};

    explicit HostPair(const ies::BoardConfig &config)
        : lanes(config), serial(config)
    {
        lanes.plugInto(laneHost.bus());
        serial.plugInto(serialHost.bus());
        serial.attachFlightRecorder(recorder);
    }

    /** Run both hosts @p refs CPU references; return the process's
     *  thread count right after the lane side's run (before any stop
     *  point). */
    int run(std::uint64_t refs)
    {
        laneHost.run(refs);
        const int threads = settledThreads();
        serialHost.run(refs);
        return threads;
    }
};

/** Lanes must run when the process has a second CPU. */
void
expectLanesRan(int during, int before)
{
    if (usableCpus() >= 2)
        EXPECT_GT(during, before) << "no lane started";
    else
        EXPECT_EQ(during, before);
}

TEST(LanesEquivTest, HostRunMatchesSerialBoard)
{
    HostPair pair(fig4Config());
    const int before = settledThreads();
    expectLanesRan(pair.run(60'000), before);
    pair.lanes.drainAll();
    pair.serial.drainAll();
    // Lanes stop at drainAll and start again only at a retirement.
    EXPECT_EQ(settledThreads(), before);
    EXPECT_GT(pair.lanes.node(0).stats().localRefs, 0u);
    expectSameBoard(pair.lanes, pair.serial);
}

/** A bare-bus stream dense enough to fill a 4-entry buffer. */
std::vector<bus::BusTransaction>
denseStream(std::size_t count)
{
    Rng rng(5);
    std::vector<bus::BusTransaction> stream;
    Cycle cycle = 0;
    for (std::size_t i = 0; i < count; ++i) {
        bus::BusTransaction txn;
        const auto pick = rng.nextBounded(10);
        txn.op = pick < 5   ? bus::BusOp::Read
                 : pick < 8 ? bus::BusOp::Rwitm
                            : bus::BusOp::WriteBack;
        txn.addr = rng.nextBounded(4096) * 128;
        txn.cpu = static_cast<CpuId>(rng.nextBounded(8));
        cycle += 1 + rng.nextBounded(4);
        txn.cycle = cycle;
        txn.traceId = static_cast<std::uint32_t>(i);
        stream.push_back(txn);
    }
    return stream;
}

void
issueAll(bus::Bus6xx &bus, const std::vector<bus::BusTransaction> &stream)
{
    for (const bus::BusTransaction &txn : stream) {
        bus.advanceTo(txn.cycle);
        bus.issue(txn);
    }
}

TEST(LanesEquivTest, BareBusWithRetriesMatchesSerialBoard)
{
    ies::BoardConfig config = fig4Config();
    config.bufferEntries = 4;
    const auto stream = denseStream(20'000);

    ies::MemoriesBoard lanes(config), serial(config);
    trace::FlightRecorder recorder(1024);
    serial.attachFlightRecorder(recorder);
    bus::Bus6xx laneBus, serialBus;
    lanes.plugInto(laneBus);
    serial.plugInto(serialBus);

    const int before = settledThreads();
    issueAll(laneBus, stream);
    expectLanesRan(settledThreads(), before);
    issueAll(serialBus, stream);
    lanes.unplug(laneBus);
    serial.unplug(serialBus);
    EXPECT_EQ(settledThreads(), before);

    EXPECT_GT(lanes.retriesPosted(), 0u);
    EXPECT_EQ(lanes.retriesPosted(), serial.retriesPosted());
    EXPECT_EQ(laneBus.stats().retries, serialBus.stats().retries);
    lanes.drainAll();
    serial.drainAll();
    expectSameBoard(lanes, serial);
}

TEST(LanesEquivTest, ReadsBetweenSlicesMatchSerialBoard)
{
    HostPair pair(fig4Config());
    for (int slice = 0; slice < 6; ++slice) {
        const int before = settledThreads();
        expectLanesRan(pair.run(8'000), before);
        // Each read is a stop point; the next slice starts lanes anew.
        // Odd slices read through a const board, even ones not.
        const ies::MemoriesBoard &view = pair.lanes;
        for (std::size_t n = 0; n < pair.lanes.numNodes(); ++n) {
            const ies::NodeStats a = slice % 2 ? view.node(n).stats()
                                               : pair.lanes.node(n).stats();
            const ies::NodeStats b = pair.serial.node(n).stats();
            EXPECT_EQ(a.localRefs, b.localRefs) << "slice " << slice;
            EXPECT_EQ(a.localMisses, b.localMisses) << "slice " << slice;
            EXPECT_EQ(a.evictionsDirty, b.evictionsDirty)
                << "slice " << slice;
        }
        expectLanesRan(pair.run(8'000), before);
        EXPECT_EQ(pair.lanes.dumpCounters(), pair.serial.dumpCounters())
            << "slice " << slice;
        expectLanesRan(pair.run(8'000), before);
        EXPECT_EQ(stateBytes(pair.lanes), stateBytes(pair.serial))
            << "slice " << slice;
        EXPECT_EQ(settledThreads(), before);
    }
    pair.lanes.drainAll();
    pair.serial.drainAll();
    expectSameBoard(pair.lanes, pair.serial);
}

TEST(LanesEquivTest, RecorderSwitchedMidRunMatchesSerialBoard)
{
    HostPair pair(fig4Config());
    trace::FlightRecorder midRun(1024);
    const int before = settledThreads();
    expectLanesRan(pair.run(20'000), before);
    pair.lanes.attachFlightRecorder(midRun);
    EXPECT_EQ(pair.run(20'000), before) << "a watched board ran lanes";
    pair.lanes.detachFlightRecorder();
    expectLanesRan(pair.run(20'000), before);
    pair.lanes.drainAll();
    pair.serial.drainAll();
    expectSameBoard(pair.lanes, pair.serial);
}

TEST(LanesEquivTest, FeedBatchAfterLiveRetirementsMatchesSerialBoard)
{
    const auto stream = denseStream(12'000);
    const std::vector<bus::BusTransaction> live(stream.begin(),
                                                stream.begin() + 6'000);
    const std::vector<bus::BusTransaction> batch(stream.begin() + 6'000,
                                                 stream.end());
    ies::MemoriesBoard lanes(fig4Config()), serial(fig4Config());
    trace::FlightRecorder recorder(1024);
    serial.attachFlightRecorder(recorder);
    bus::Bus6xx laneBus, serialBus;
    lanes.plugInto(laneBus);
    serial.plugInto(serialBus);

    const int before = settledThreads();
    issueAll(laneBus, live);
    expectLanesRan(settledThreads(), before);
    issueAll(serialBus, live);
    EXPECT_EQ(lanes.feedBatch(batch), serial.feedBatch(batch));
    EXPECT_EQ(settledThreads(), before);
    lanes.drainAll();
    serial.drainAll();
    expectSameBoard(lanes, serial);
}

TEST(LanesEquivTest, ClearAndResetMidRunMatchSerialBoard)
{
    HostPair pair(fig4Config());
    pair.run(20'000);
    pair.lanes.clearCounters();
    pair.serial.clearCounters();
    pair.run(20'000);
    expectSameBoard(pair.lanes, pair.serial);
    pair.run(20'000);
    pair.lanes.reset();
    pair.serial.reset();
    pair.run(20'000);
    pair.lanes.drainAll();
    pair.serial.drainAll();
    expectSameBoard(pair.lanes, pair.serial);
}

TEST(LanesEquivTest, LoadStateMidRunMatchesSerialBoard)
{
    HostPair pair(fig4Config());
    pair.run(20'000);
    const auto saved = stateBytes(pair.lanes);
    ASSERT_EQ(saved, stateBytes(pair.serial));
    pair.run(20'000);
    const auto image = ckpt::CheckpointImage::fromBytes(saved, "mid-run");
    pair.lanes.loadState(image);
    pair.serial.loadState(image);
    pair.run(20'000);
    pair.lanes.drainAll();
    pair.serial.drainAll();
    expectSameBoard(pair.lanes, pair.serial);
}

TEST(LanesEquivTest, ResyncMidRunMatchesSerialBoard)
{
    // Two pairs on the same host stream: each side resyncs from a
    // healthy twin of its own kind while both hold a backlog.
    HostPair pair(fig4Config());
    HostPair source(fig4Config());
    pair.run(20'000);
    source.run(30'000);
    pair.lanes.resyncFrom(source.lanes);
    pair.serial.resyncFrom(source.serial);
    const int before = settledThreads();
    expectLanesRan(pair.run(20'000), before);
    pair.lanes.drainAll();
    pair.serial.drainAll();
    expectSameBoard(pair.lanes, pair.serial);
    source.lanes.drainAll();
    source.serial.drainAll();
    expectSameBoard(source.lanes, source.serial);
}

TEST(LanesEquivTest, EveryStopPointJoinsTheLanes)
{
    if (usableCpus() < 2)
        GTEST_SKIP() << "lanes need a second CPU";
    workload::OltpWorkload load(oltpParams()), sourceLoad(oltpParams());
    host::HostMachine machine(smallHost(), load);
    host::HostMachine sourceMachine(smallHost(), sourceLoad);
    ies::MemoriesBoard source(fig4Config());
    source.plugInto(sourceMachine.bus());
    const int before = settledThreads();

    // The destructor joins its lanes.
    {
        ies::MemoriesBoard board(fig4Config());
        board.plugInto(machine.bus());
        machine.run(2'000);
        ASSERT_GT(settledThreads(), before);
        machine.bus().detach(&board);
        machine.bus().detachObserver(&board);
    }
    EXPECT_EQ(settledThreads(), before) << "the destructor";

    ies::MemoriesBoard board(fig4Config());
    board.plugInto(machine.bus());
    const ies::MemoriesBoard &view = board;
    const auto image =
        ckpt::CheckpointImage::fromBytes(stateBytes(board), "start");
    trace::FlightRecorder recorder(1024);
    fault::FaultInjector injector(fault::FaultPlan{}, 3);
    telemetry::Sampler sampler(100'000);
    const bus::BusTransaction none{};
    const std::vector<std::pair<const char *, std::function<void()>>>
        stops = {
            {"node", [&] { board.node(1); }},
            {"const node", [&] { view.node(1); }},
            {"dumpStats", [&] { board.dumpStats(); }},
            {"dumpCounters", [&] { board.dumpCounters(); }},
            {"saveState", [&] { stateBytes(board); }},
            {"loadState", [&] { board.loadState(image); }},
            {"clearCounters", [&] { board.clearCounters(); }},
            {"reset", [&] { board.reset(); }},
            {"feedBatch", [&] { board.feedBatch(&none, 0); }},
            {"drainAll", [&] { board.drainAll(); }},
            {"attachFlightRecorder",
             [&] { board.attachFlightRecorder(recorder); }},
            {"detachFlightRecorder", [&] { board.detachFlightRecorder(); }},
            {"detachFlightRecorder, none attached",
             [&] { board.detachFlightRecorder(); }},
            {"attachFaultInjector",
             [&] { board.attachFaultInjector(injector); }},
            {"detachFaultInjector", [&] { board.detachFaultInjector(); }},
            {"detachFaultInjector, none attached",
             [&] { board.detachFaultInjector(); }},
            {"resyncFrom, both boards running",
             [&] {
                 sourceMachine.run(2'000);
                 ASSERT_GT(settledThreads(), before);
                 board.resyncFrom(source);
             }},
            {"unplug",
             [&] {
                 board.unplug(machine.bus());
                 board.plugInto(machine.bus()); // starts no lane
             }},
            {"attachTelemetry", [&] { board.attachTelemetry(sampler); }},
        };
    for (const auto &[name, stop] : stops) {
        machine.run(2'000);
        // A hook attached by the previous step keeps the board serial.
        if (board.flightRecorder() == nullptr &&
            board.faultInjector() == nullptr) {
            ASSERT_GT(settledThreads(), before) << "no lanes before " << name;
        }
        stop();
        EXPECT_EQ(settledThreads(), before) << name << " left lanes running";
    }
    // Telemetry keeps the board serial from then on.
    machine.run(2'000);
    EXPECT_EQ(settledThreads(), before);
    board.unplug(machine.bus());
}

/** Run @p board live on its own host; return the thread count seen
 *  right after the run, before any stop point. */
int
threadsDuringRun(ies::MemoriesBoard &board)
{
    workload::OltpWorkload load(oltpParams());
    host::HostMachine machine(smallHost(), load);
    board.plugInto(machine.bus());
    machine.run(20'000);
    const int threads = settledThreads();
    board.unplug(machine.bus());
    return threads;
}

TEST(LanesEquivTest, OneMachineAndWatchedBoardsStartNoLane)
{
    const int before = settledThreads();
    {
        // Four nodes of one coherent machine need each other's snoop
        // response within a tenure.
        ies::MemoriesBoard board(ies::makeUniformBoard(
            4, 2,
            cache::CacheConfig{2 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        EXPECT_EQ(threadsDuringRun(board), before);
    }
    {
        ies::MemoriesBoard board(fig4Config());
        trace::FlightRecorder recorder(1024);
        board.attachFlightRecorder(recorder);
        EXPECT_EQ(threadsDuringRun(board), before);
    }
    {
        ies::MemoriesBoard board(fig4Config());
        fault::FaultInjector injector(fault::FaultPlan{}, 3);
        board.attachFaultInjector(injector);
        EXPECT_EQ(threadsDuringRun(board), before);
        board.detachFaultInjector();
    }
    {
        ies::BoardConfig config = fig4Config();
        config.health.enabled = true;
        ies::MemoriesBoard board(config);
        EXPECT_EQ(threadsDuringRun(board), before);
    }
    {
        ies::MemoriesBoard board(fig4Config());
        telemetry::Sampler sampler(100'000);
        board.attachTelemetry(sampler);
        EXPECT_EQ(threadsDuringRun(board), before);
    }
    {
        // The control: the same board unwatched does start lanes.
        ies::MemoriesBoard board(fig4Config());
        expectLanesRan(threadsDuringRun(board), before);
    }
    EXPECT_EQ(settledThreads(), before);
}

TEST(LanesEquivTest, SingleCpuProcessStartsNoLane)
{
    cpu_set_t saved;
    CPU_ZERO(&saved);
    ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &saved)) {
            CPU_SET(cpu, &one);
            break;
        }
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
    const int before = settledThreads();
    int during = -1;
    {
        ies::MemoriesBoard board(fig4Config());
        during = threadsDuringRun(board);
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
    EXPECT_EQ(during, before);
}

} // namespace
} // namespace memories
