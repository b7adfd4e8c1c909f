/**
 * @file
 * SPLASH2 scaling study (Case Study 3): run the five kernels at
 * SPLASH2-paper sizes and at this paper's "realistic" sizes, compare
 * L2 miss rates per thousand instructions (Table 6's metric), and show
 * the emulated-L3 benefit.
 *
 * Usage: splash_scaling [--refs=<millions-per-app>]
 */

#include <cstdio>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

struct AppResult
{
    std::string name;
    double missesPerKi = 0;
    double l3HitRatio = 0;
    double footprintGb = 0;
};

AppResult
runApp(const workload::SplashParams &params, std::uint64_t refs)
{
    workload::SplashWorkload wl(params);
    host::HostMachine machine(host::s7aConfig(), wl);
    auto board = ies::MemoriesBoard::make(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{64 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board->plugInto(machine.bus());
    machine.run(refs);
    board->drainAll();

    const auto host_stats = machine.totalStats();
    const double instructions = host::TimingModel::instructions(
        host_stats.refs, wl.refsPerInstruction());

    AppResult result;
    result.name = params.name;
    result.missesPerKi = host::TimingModel::missesPerKiloInstruction(
        host_stats.l2Misses, instructions);
    const auto node = board->node(0).stats();
    result.l3HitRatio = 1.0 - node.missRatio();
    result.footprintGb =
        static_cast<double>(params.footprintBytes) / (1ull << 30);
    return result;
}

int
program(int argc, char **argv)
{
    const std::uint64_t refs = parseRefs(argc, argv, 10);

    // Footprints scaled 1/64 to run at laptop scale; the scaling
    // factor preserves the between-app ratios (DESIGN.md).
    const double scale = 1.0 / 64.0;

    std::printf("%-8s | %13s %13s | %12s %12s\n", "app",
                "small miss/Ki", "large miss/Ki", "large GB",
                "L3 hit ratio");
    std::printf("---------+-----------------------------+--------------"
                "-------------\n");

    const auto small_suite = workload::splash2SizeSuite(8, scale);
    const auto large_suite = workload::paperSplashSuite(8, scale);
    for (std::size_t i = 0; i < large_suite.size(); ++i) {
        const auto small = runApp(small_suite[i], refs);
        const auto large = runApp(large_suite[i], refs);
        std::printf("%-8s | %13.2f %13.2f | %12.2f %12.2f\n",
                    large.name.c_str(), small.missesPerKi,
                    large.missesPerKi, large.footprintGb / scale,
                    large.l3HitRatio);
    }

    std::printf("\nPaper Table 6 reference (miss/Ki): FMM 0.33->0.7, "
                "FFT 5.5->0.3, Ocean 3.7->8.2,\nWater 0.073->0.2, "
                "Barnes 0.11->0.3 (small 1MB cache -> large 8MB L2).\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
