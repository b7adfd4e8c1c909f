/**
 * @file
 * Quickstart: the smallest complete MemorIES experiment.
 *
 * Wires the four pieces together:
 *   1. a workload (TPC-C-like OLTP generator),
 *   2. the S7A-like host machine executing it through L1/L2 caches,
 *   3. a MemorIES board passively snooping the host's 6xx bus with one
 *      emulated 64MB L3 shared by all 8 processors, and
 *   4. statistics extraction from the board's counters.
 *
 * Build and run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    CommandLine().parseOrExit(argc, argv);

    // 1. Workload: a scaled-down TPC-C-like database. The real case
    //    studies ran 150GB; 256MB preserves the access statistics at
    //    laptop scale (see DESIGN.md on scaling).
    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = 256 * MiB;
    workload::OltpWorkload wl(oltp);

    // 2. Host machine: the paper's 8-way S7A with 8MB 4-way L2s.
    host::HostMachine machine(host::s7aConfig(), wl);

    // 3. The board: one emulated node, 64MB 4-way L3, MESI, all CPUs.
    auto board = ies::MemoriesBoard::make(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{64 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board->plugInto(machine.bus());

    // Run 20 million references in real time; the board observes the
    // L2 miss traffic without slowing the host down.
    std::printf("running 20M references on the emulated host...\n");
    machine.run(20'000'000);
    board->drainAll();

    // 4. Extract statistics.
    const auto host_stats = machine.totalStats();
    const auto node = board->node(0).stats();
    std::printf("\nhost: %llu refs, L2 miss ratio %.4f, bus util %.1f%%\n",
                static_cast<unsigned long long>(host_stats.refs),
                static_cast<double>(host_stats.l2Misses) /
                    static_cast<double>(host_stats.refs),
                100.0 * machine.bus().stats().utilization(
                            machine.bus().now()));
    std::printf("emulated 64MB L3: %llu refs, miss ratio %.4f\n",
                static_cast<unsigned long long>(node.localRefs),
                node.missRatio());
    std::printf("  satisfied by: L3 %llu, memory %llu\n",
                static_cast<unsigned long long>(node.satisfiedByCache),
                static_cast<unsigned long long>(node.satisfiedByMemory));
    std::printf("board posted %llu retries (passive when 0)\n",
                static_cast<unsigned long long>(board->retriesPosted()));

    std::printf("\nfull console dump:\n%s", board->dumpStats().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
