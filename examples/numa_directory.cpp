/**
 * @file
 * NUMA personality demo (paper section 2.3): reprogram the board as a
 * 4-node NUMA sparse-directory emulator with remote caches, run an
 * OLTP workload, and report local/remote traffic, sparse-directory
 * pressure and remote-cache effectiveness. Also demonstrates the
 * hot-spot personality on the same run.
 *
 * Usage: numa_directory [--refs=<millions>]
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
    const std::uint64_t refs = parseRefs(argc, argv, 10);

    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = 256 * MiB;
    workload::OltpWorkload wl(oltp);

    // The paper suggests shrinking the host L2 for directory studies,
    // since the passive board cannot invalidate host caches.
    host::HostMachine machine(host::s7aConfig1MbDirectMapped(), wl);

    ies::NumaConfig numa_cfg;
    numa_cfg.numNodes = 4;
    numa_cfg.cpusPerNode = 2;
    numa_cfg.l3 = cache::CacheConfig{32 * MiB, 4, 128,
                                     cache::ReplacementPolicy::LRU};
    numa_cfg.sparseEntries = 1 << 18;
    numa_cfg.sparseAssoc = 4;
    numa_cfg.remoteCacheEnabled = true;
    numa_cfg.remoteCache = cache::CacheConfig{8 * MiB, 4, 128,
                                              cache::ReplacementPolicy::
                                                  LRU};
    ies::NumaEmulator numa(numa_cfg);
    numa.plugInto(machine.bus());

    ies::HotSpotConfig hot_cfg;
    hot_cfg.regionBase = workload::workloadBaseAddr;
    hot_cfg.regionBytes = 256 * MiB;
    hot_cfg.granularityBytes = 4096;
    ies::HotSpotTracker hotspots(hot_cfg);
    hotspots.plugInto(machine.bus());

    std::printf("running %llu refs through the NUMA personality...\n",
                static_cast<unsigned long long>(refs));
    machine.run(refs);

    const auto s = numa.stats();
    std::printf("\n=== NUMA sparse-directory emulation ===\n");
    std::printf("requests: local %llu remote %llu (local fraction "
                "%.2f)\n",
                static_cast<unsigned long long>(s.localRequests),
                static_cast<unsigned long long>(s.remoteRequests),
                s.localFraction());
    std::printf("L3: hits %llu misses %llu\n",
                static_cast<unsigned long long>(s.l3Hits),
                static_cast<unsigned long long>(s.l3Misses));
    std::printf("remote cache hits: %llu\n",
                static_cast<unsigned long long>(s.remoteCacheHits));
    std::printf("sparse directory: evictions %llu, L3 invalidations "
                "from evictions %llu, from writes %llu\n",
                static_cast<unsigned long long>(s.sparseEvictions),
                static_cast<unsigned long long>(s.invalidationsSent),
                static_cast<unsigned long long>(s.writeInvalidations));

    std::printf("\n=== hot spots (page basis) ===\n");
    std::printf("%-18s %10s %10s\n", "page", "reads", "writes");
    for (const auto &entry : hotspots.topN(8)) {
        std::printf("0x%016llx %10llu %10llu\n",
                    static_cast<unsigned long long>(entry.base),
                    static_cast<unsigned long long>(entry.reads),
                    static_cast<unsigned long long>(entry.writes));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
