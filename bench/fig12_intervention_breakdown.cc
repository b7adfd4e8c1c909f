/**
 * @file
 * Figure 12 reproduction: where an L2 miss is satisfied — local L3,
 * modified intervention, shared intervention, or memory — for FFT,
 * Ocean and FMM under two NUMA organizations: 2 nodes x 4 processors
 * per L3 and 4 nodes x 2 processors per L3. L2 8MB/128B; the L3s use
 * 1KB lines as in the paper.
 *
 * Shape: FFT and Ocean have small intervention fractions (little
 * inter-node sharing: memory placement matters, tertiary caches
 * help); FMM shows a markedly larger modified+shared intervention
 * share (cache-to-cache transfer efficiency matters).
 */

#include <cstdio>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

struct Breakdown
{
    double l3 = 0, modInt = 0, shrInt = 0, memory = 0;
};

Breakdown
run(const workload::SplashParams &app, unsigned nodes,
    std::uint64_t refs)
{
    workload::SplashWorkload wl(app);
    host::HostMachine machine(host::s7aConfig(), wl);
    ies::MemoriesBoard board(ies::makeUniformBoard(
        nodes, 8 / nodes,
        cache::CacheConfig{16 * MiB, 4, 1024,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(machine.bus());
    machine.run(refs);
    board.drainAll();

    std::uint64_t l3 = 0, mi = 0, si = 0, mem = 0;
    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        const auto s = board.node(n).stats();
        l3 += s.satisfiedByCache;
        mi += s.satisfiedByModIntervention;
        si += s.satisfiedByShrIntervention;
        mem += s.satisfiedByMemory;
    }
    const double total = static_cast<double>(l3 + mi + si + mem);
    Breakdown b;
    if (total > 0) {
        b.l3 = 100.0 * static_cast<double>(l3) / total;
        b.modInt = 100.0 * static_cast<double>(mi) / total;
        b.shrInt = 100.0 * static_cast<double>(si) / total;
        b.memory = 100.0 * static_cast<double>(mem) / total;
    }
    return b;
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Figure 12: where an L2 miss is satisfied",
                  "FFT/Ocean: low interventions; FMM: heavy mod/shr "
                  "intervention traffic");

    const std::uint64_t refs = args.refsOrDefault(15.0);
    const double scale = args.scale / 64.0;

    const workload::SplashParams apps[] = {
        workload::fftParams(28, 8, scale),
        workload::oceanParams(8194, 8, scale),
        workload::fmmParams(4'000'000, 8, scale),
    };

    std::printf("%-8s %-14s %8s %8s %8s %8s\n", "app", "organization",
                "L3%", "mod-int%", "shr-int%", "memory%");
    double fft_interventions = 0, fmm_interventions = 0;
    for (const auto &app : apps) {
        for (unsigned nodes : {2u, 4u}) {
            const auto b = run(app, nodes, refs);
            std::printf("%-8s %u nodes x %u    %8.1f %8.1f %8.1f "
                        "%8.1f\n",
                        app.name.c_str(), nodes, 8 / nodes, b.l3,
                        b.modInt, b.shrInt, b.memory);
            if (app.name == "FFT" && nodes == 2)
                fft_interventions = b.modInt + b.shrInt;
            if (app.name == "FMM" && nodes == 2)
                fmm_interventions = b.modInt + b.shrInt;
        }
    }

    std::printf("\nshape check: FMM interventions (%.1f%%) exceed "
                "FFT's (%.1f%%) - the paper's\nconclusion that FMM "
                "rewards efficient cache-to-cache transfers while "
                "FFT/Ocean\nreward memory placement.\n",
                fmm_interventions, fft_interventions);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
