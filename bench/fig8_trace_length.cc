/**
 * @file
 * Figure 8 reproduction: L3 miss ratio vs cache size for different
 * trace lengths — TPC-C (10 billion vs 20 million references) and
 * TPC-H (400B vs 200B vs 10B references).
 *
 * Methodology: exactly the paper's — the short trace is a prefix of
 * the long one, both measured from a cold directory; six cache
 * geometries are emulated against the identical reference stream in
 * one pass (multi-configuration mode, Figure 4). Reference counts and
 * footprints are scaled (~1/500 on the trace, ~1/75 on the database)
 * preserving the short:long ratio that drives the effect; --refs
 * raises them toward paper scale.
 *
 * Shape: the short trace is dominated by cold misses, so its curve
 * goes flat beyond a modest cache size — suggesting, wrongly, that
 * bigger caches stop helping — while the long trace keeps falling.
 */

#include <cstdio>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

struct Snapshot
{
    std::vector<double> missRatio; //!< per cache config
};

std::vector<cache::CacheConfig>
sweepConfigs()
{
    std::vector<cache::CacheConfig> configs;
    for (std::uint64_t mb : {16, 32, 64, 128, 256, 512})
        configs.push_back(cache::CacheConfig{
            mb * MiB, 4, 128, cache::ReplacementPolicy::LRU});
    return configs;
}

Snapshot
snapshot(const ies::MemoriesBoard &board)
{
    Snapshot snap;
    for (std::size_t n = 0; n < board.numNodes(); ++n)
        snap.missRatio.push_back(board.node(n).stats().missRatio());
    return snap;
}

void
printCurves(const char *title,
            const std::vector<cache::CacheConfig> &configs,
            const std::vector<std::pair<std::string, Snapshot>> &curves)
{
    std::printf("\n--- %s ---\n%-10s", title, "L3 size");
    for (const auto &[label, snap] : curves)
        std::printf(" %16s", label.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < configs.size(); ++i) {
        std::printf("%-10s",
                    formatByteSize(configs[i].sizeBytes).c_str());
        for (const auto &[label, snap] : curves)
            std::printf(" %16.4f", snap.missRatio[i]);
        std::printf("\n");
    }
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Figure 8: L3 miss ratio vs trace length",
                  "short traces overstate miss ratios at large caches "
                  "(cold-start domination)");

    setLoggingQuiet(true); // 6 nodes > 1 physical board warns
    const auto configs = sweepConfigs();

    // --- TPC-C: short = 1% prefix of long (paper: 20M of 10B). ---
    {
        const std::uint64_t long_refs = args.refsOrDefault(120.0);
        workload::OltpParams oltp;
        oltp.threads = 8;
        oltp.dbBytes = static_cast<std::uint64_t>(2.0 * args.scale *
                                                  GiB);
        workload::OltpWorkload wl(oltp);
        host::HostMachine machine(host::s7aConfig(), wl);
        ies::MemoriesBoard board(ies::makeMultiConfigBoard(configs, 8));
        board.plugInto(machine.bus());

        machine.run(long_refs / 100);
        board.drainAll();
        const auto short_snap = snapshot(board);
        machine.run(long_refs - long_refs / 100);
        board.drainAll();
        const auto long_snap = snapshot(board);

        printCurves("TPC-C (150GB database, scaled)", configs,
                    {{"short (1%)", short_snap},
                     {"long (100%)", long_snap}});
    }

    // --- TPC-H: 2.5% and 50% prefixes (paper: 10B/200B of 400B). ---
    {
        const std::uint64_t long_refs = args.refsOrDefault(120.0);
        workload::DssParams dss;
        dss.threads = 8;
        dss.factBytes = static_cast<std::uint64_t>(3.0 * args.scale *
                                                   GiB);
        dss.dimBytes = static_cast<std::uint64_t>(0.75 * args.scale *
                                                  GiB);
        workload::DssWorkload wl(dss);
        host::HostMachine machine(host::s7aConfig(), wl);
        ies::MemoriesBoard board(ies::makeMultiConfigBoard(configs, 8));
        board.plugInto(machine.bus());

        machine.run(long_refs / 40);
        board.drainAll();
        const auto short_snap = snapshot(board);
        machine.run(long_refs / 2 - long_refs / 40);
        board.drainAll();
        const auto mid_snap = snapshot(board);
        machine.run(long_refs / 2);
        board.drainAll();
        const auto long_snap = snapshot(board);

        printCurves("TPC-H (100GB database, scaled)", configs,
                    {{"short (2.5%)", short_snap},
                     {"mid (50%)", mid_snap},
                     {"long (100%)", long_snap}});
    }

    std::printf("\nshape check: each curve decreases with cache size; "
                "the short-trace curves sit\nhigher and flatten out at "
                "large sizes where the long-trace curves keep "
                "falling.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
