/**
 * @file
 * Figure 11 reproduction: L3 miss ratio vs L3 size for the five
 * SPLASH2 applications at realistic problem sizes, beneath 8MB 4-way
 * L2s, 8 processors sharing one L3, 128B lines.
 *
 * Shape: miss ratios decrease monotonically with L3 size for every
 * application — the paper's argument that large L3s keep paying off
 * at realistic sizes. Footprints are scaled 1/64 and the L3 axis
 * 1/16, preserving the footprint:cache ratios (see DESIGN.md).
 */

#include <cstdio>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Figure 11: L3 miss ratio vs L3 size (SPLASH2)",
                  "monotonically decreasing for all five apps; 8MB L2 "
                  "beneath");

    setLoggingQuiet(true);
    const std::uint64_t refs = args.refsOrDefault(40.0);
    const double scale = args.scale / 64.0;
    // Footprints shrink 1/64, so the per-timestep sweep over each
    // partition must shrink by the same factor for the run to contain
    // as many data revisits as hours-long paper runs do; the L3 sees
    // the same reuse structure, compressed.
    const double sweep_compression = 64.0;

    std::vector<cache::CacheConfig> configs;
    for (std::uint64_t mb : {2, 4, 8, 16, 32, 64})
        configs.push_back(cache::CacheConfig{
            mb * MiB, 4, 128, cache::ReplacementPolicy::LRU});

    std::printf("%-10s", "L3 size*");
    auto suite = workload::paperSplashSuite(8, scale);
    for (auto &app : suite) {
        std::printf(" %9s", app.name.c_str());
        app.windowAdvanceRefs = std::max<std::uint64_t>(
            static_cast<std::uint64_t>(
                static_cast<double>(app.windowAdvanceRefs) /
                sweep_compression),
            1000);
    }
    std::printf("\n");

    std::vector<std::vector<double>> ratios(configs.size());
    for (const auto &app : suite) {
        workload::SplashWorkload wl(app);
        host::HostMachine machine(host::s7aConfig(), wl);
        ies::MemoriesBoard board(ies::makeMultiConfigBoard(configs, 8));
        board.plugInto(machine.bus());
        // Warm up, then measure the steady-state delta: the paper's
        // hours-long runs make directory fill a negligible fraction.
        machine.run(refs / 2);
        board.drainAll();
        std::vector<ies::NodeStats> warm;
        for (std::size_t c = 0; c < configs.size(); ++c)
            warm.push_back(board.node(c).stats());
        machine.run(refs);
        board.drainAll();
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto s = board.node(c).stats();
            ratios[c].push_back(
                ratio(s.localMisses - warm[c].localMisses,
                      s.localRefs - warm[c].localRefs));
        }
    }

    for (std::size_t c = 0; c < configs.size(); ++c) {
        std::printf("%-10s",
                    formatByteSize(configs[c].sizeBytes).c_str());
        for (double r : ratios[c])
            std::printf(" %9.4f", r);
        std::printf("\n");
    }
    std::printf("(* L3 axis scaled 1/16 alongside 1/64 footprints; "
                "paper axis: 32MB-1GB)\n");

    int monotone = 0;
    for (std::size_t app = 0; app < suite.size(); ++app) {
        bool ok = true;
        for (std::size_t c = 1; c < configs.size(); ++c)
            ok = ok && ratios[c][app] <= ratios[c - 1][app] + 0.01;
        monotone += ok;
    }
    std::printf("\nshape check: %d/5 applications show monotonically "
                "decreasing miss ratio with L3 size.\n", monotone);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
