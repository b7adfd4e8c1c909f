/**
 * @file
 * Ablation: sparse-directory design space (the [WEB93] question).
 *
 * Sweeps the sharer-set representation (full-map, coarse-vector,
 * limited-pointer) and the sparse-directory capacity against one OLTP
 * run in the NUMA personality, reporting invalidation traffic and the
 * over-invalidations imprecise schemes pay. This is exactly the study
 * the paper's NUMA directory emulation mode (§2.3) was built to run.
 */

#include <cstdio>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

ies::NumaStats
run(ies::DirectoryScheme scheme, std::uint64_t sparse_entries,
    std::uint64_t refs, double scale)
{
    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = static_cast<std::uint64_t>(scale * 128 * MiB);
    oltp.sharedFrac = 0.5;
    workload::OltpWorkload wl(oltp);
    host::HostMachine machine(host::s7aConfig1MbDirectMapped(), wl);

    ies::NumaConfig cfg;
    cfg.numNodes = 4;
    cfg.cpusPerNode = 2;
    cfg.l3 = cache::CacheConfig{16 * MiB, 4, 128,
                                cache::ReplacementPolicy::LRU};
    cfg.sparseEntries = sparse_entries;
    cfg.sparseAssoc = 4;
    cfg.scheme = scheme;
    ies::NumaEmulator numa(cfg);
    numa.plugInto(machine.bus());
    machine.run(refs);
    return numa.stats();
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Ablation: sparse-directory schemes [WEB93]",
                  "precision vs SDRAM: imprecise sharer sets pay "
                  "over-invalidations");

    const std::uint64_t refs = args.refsOrDefault(10.0);

    std::printf("--- representation sweep (64K sparse entries) ---\n");
    std::printf("%-16s %12s %12s %14s %12s\n", "scheme", "write-inv",
                "evict-inv", "over-inv", "L3 hit%");
    for (auto scheme : {ies::DirectoryScheme::FullMap,
                        ies::DirectoryScheme::CoarseVector,
                        ies::DirectoryScheme::LimitedPointer}) {
        const auto s = run(scheme, 1 << 16, refs, args.scale);
        std::printf("%-16s %12llu %12llu %14llu %11.1f%%\n",
                    ies::directorySchemeName(scheme),
                    static_cast<unsigned long long>(
                        s.writeInvalidations),
                    static_cast<unsigned long long>(
                        s.invalidationsSent),
                    static_cast<unsigned long long>(
                        s.overInvalidations),
                    100.0 * ratio(s.l3Hits, s.l3Hits + s.l3Misses));
    }

    std::printf("\n--- sparse capacity sweep (full-map) ---\n");
    std::printf("%-14s %14s %14s %12s\n", "entries", "evictions",
                "evict-inv", "L3 hit%");
    for (std::uint64_t entries : {1u << 10, 1u << 12, 1u << 14,
                                  1u << 16, 1u << 18}) {
        const auto s = run(ies::DirectoryScheme::FullMap, entries, refs,
                           args.scale);
        std::printf("%-14llu %14llu %14llu %11.1f%%\n",
                    static_cast<unsigned long long>(entries),
                    static_cast<unsigned long long>(s.sparseEvictions),
                    static_cast<unsigned long long>(
                        s.invalidationsSent),
                    100.0 * ratio(s.l3Hits, s.l3Hits + s.l3Misses));
    }

    std::printf("\nfinding: under-sized sparse directories evict "
                "live entries and shoot down L3\nlines; imprecise "
                "sharer representations trade that SDRAM for wasted "
                "invalidations.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
