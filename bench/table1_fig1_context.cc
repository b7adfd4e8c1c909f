/**
 * @file
 * Table 1 and Figure 1 reproduction: the motivating context.
 *
 * Table 1 is a literature survey (simulated vs real cache sizes,
 * 1995-1999); Figure 1 projects L2/L3 size ranges forward. Neither
 * needs simulation — this harness reprints the published data and then
 * *demonstrates the gap computationally*: it measures how long this
 * machine's detailed simulator would need for a realistically-sized
 * run versus a SPLASH2-1995-sized run, which is the reason the gap in
 * Table 1 existed.
 */

#include <cstdio>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t sample = parseRefs(argc, argv, 1.0);
    bench::banner("Table 1 & Figure 1: the simulation-scaling gap",
                  "simulated caches lagged real machines by 8-64x "
                  "through the 1990s");

    std::printf("Table 1 (from the paper: published studies vs real "
                "machines):\n");
    std::printf("%-6s %-12s %-14s %-14s %-10s %-10s\n", "year", "app",
                "problem", "simulated L2", "real L2", "real L3");
    struct Row
    {
        const char *year, *app, *problem, *sim, *l2, *l3;
    };
    const Row rows[] = {
        {"1995", "FFT", "64K points", "8KB-1MB", "512KB", "n/a"},
        {"1995", "Barnes-Hut", "16K bodies", "8KB-1MB", "512KB", "n/a"},
        {"1995", "Water", "512 molecules", "8KB-1MB", "512KB", "n/a"},
        {"1997", "FFT", "64K points", "8KB-1MB", "4MB", "32MB"},
        {"1997", "Barnes-Hut", "16K bodies", "8KB-1MB", "4MB", "32MB"},
        {"1997", "Water", "512 molecules", "8KB-1MB", "4MB", "32MB"},
        {"1999", "FFT", "64K points", "128KB-512KB", "8MB", "32MB"},
        {"1999", "Water", "512 molecules", "128KB-512KB", "8MB",
         "32MB"},
    };
    for (const auto &row : rows) {
        std::printf("%-6s %-12s %-14s %-14s %-10s %-10s\n", row.year,
                    row.app, row.problem, row.sim, row.l2, row.l3);
    }

    std::printf("\nFigure 1 (workload growth driving cache sizes):\n");
    std::printf("  TPC-C databases: ~10GB (1995) -> ~100GB+ (1999)\n");
    std::printf("  TPC-D/H databases: ~10GB (1994) -> ~300GB+ (1999)\n");
    std::printf("  L2/L3 ranges: ~0.5MB (1995) -> 8MB L2 + 32MB L3 "
                "(1999) -> projected 100MB-1GB+\n");

    // Why the gap existed: measure this machine's detailed-simulation
    // rate and project both problem scales.
    sim::DetailedParams params;
    params.cache = cache::CacheConfig{8 * MiB, 4, 128,
                                      cache::ReplacementPolicy::LRU};
    sim::DetailedCacheSimulator simulator(params);
    Rng rng(5);
    bench::Stopwatch clock;
    for (std::uint64_t i = 0; i < sample; ++i) {
        bus::BusTransaction txn;
        txn.addr = rng.nextBounded(1 << 20) * 128;
        txn.op = bus::BusOp::Read;
        txn.cycle = 10 * i;
        simulator.process(txn);
    }
    simulator.finish();
    const double ns_per_ref =
        clock.seconds() * 1e9 / static_cast<double>(sample);

    // SPLASH2-1995 FFT: ~0.5B refs; realistic 1999 run: ~100B refs.
    const double small_refs = 5e8, real_refs = 1e11;
    std::printf("\nmeasured detailed simulation on this machine: %.0f "
                "ns/ref\n", ns_per_ref);
    std::printf("  1995-sized run (~0.5B refs): %s of simulation\n",
                sim::humanTime(small_refs * ns_per_ref * 1e-9).c_str());
    std::printf("  1999-sized run (~100B refs): %s of simulation\n",
                sim::humanTime(real_refs * ns_per_ref * 1e-9).c_str());
    std::printf("  the same 100B refs on MemorIES: %s (real time)\n",
                sim::humanTime(
                    sim::memoriesSeconds(real_refs, 1e8, 0.10)).c_str());
    std::printf("\nconclusion: researchers scaled problems down because "
                "realistic runs cost weeks\nof simulation - the gap "
                "Table 1 documents and MemorIES closes.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
