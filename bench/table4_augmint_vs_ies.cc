/**
 * @file
 * Table 4 reproduction: Augmint (execution-driven simulation) vs
 * MemorIES for SPLASH2 FFT at m = 20, 22, 24, 26 (8 threads).
 *
 * Methodology:
 *  - the FFT instruction budget at size m is calibrated so that the
 *    host-machine timing model reproduces the paper's MemorIES column
 *    (which is simply the real-time runtime of the FFT on the 8-way
 *    262MHz host: 3s at m=20, scaling ~4.1x per +2 in m, the n log n
 *    work growth);
 *  - the Augmint column comes from the *measured* instruction
 *    throughput of our execution-driven simulator on a real downscaled
 *    FFT run, scaled to the paper's 133MHz simulation host.
 *
 * Shape: execution-driven simulation is minutes-to-days where the
 * board rides along in seconds, with a roughly constant ~1000x gap.
 */

#include <cmath>
#include <cstdio>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t instr_per_thread =
        parseRefs(argc, argv, 3.0); // measured sample: 3M instr/thread
    bench::banner("Table 4: Augmint vs MemorIES (FFT, 8 threads)",
                  "m=20: 47min vs 3s ... m=26: >2 days vs 196s");

    // Measure the execution-driven simulator's honest throughput on a
    // downscaled FFT (every simulated instruction is stepped; memory
    // instructions walk the full L1/L2/shared model).
    workload::SplashWorkload fft(
        workload::fftParams(20, 8, 1.0 / 64.0));
    sim::ExecDrivenParams exec_params;
    sim::ExecutionDrivenSimulator augmint(exec_params, fft);
    bench::Stopwatch clock;
    augmint.run(instr_per_thread);
    const double measured = clock.seconds();
    const auto stats = augmint.stats();
    const double sim_instr_per_sec =
        static_cast<double>(stats.instructions) / measured;
    // The paper's simulation host is a 133MHz machine; ours is a few
    // GHz. Scale throughput down accordingly so absolute numbers are
    // comparable (ratios don't change).
    const double paper_sim_instr_per_sec =
        sim_instr_per_sec / (sim::scaleToPaperHost(1.0) / 1.0);

    std::printf("measured: %.0f simulated instructions/s on this "
                "machine\n          (L2 miss ratio %.4f over %llu "
                "memory refs)\n\n",
                sim_instr_per_sec, stats.shared.missRatio(),
                static_cast<unsigned long long>(stats.memoryRefs));

    // FFT instruction budget, calibrated to the paper's host runtime
    // at m=20 and grown with n log2 n.
    const host::TimingModel tm;
    const double host_ips = 8.0 * tm.cpuFreqHz / tm.cpiBase;
    const double instr_at_20 = 3.0 * host_ips; // 3 seconds at m=20
    auto instructions_for = [&](unsigned m) {
        const double work = std::ldexp(static_cast<double>(m), m);
        const double work20 = std::ldexp(20.0, 20);
        return instr_at_20 * work / work20;
    };

    const unsigned sizes[] = {20, 22, 24, 26};
    const char *paper_augmint[] = {"47 min", "3.2 hours", "13 hours",
                                   "> 2 days"};
    const char *paper_ies[] = {"3 s", "13 s", "53 s", "196 s"};

    std::printf("%-4s %-22s %-22s %-12s %-10s\n", "m",
                "Augmint (133MHz proj.)", "MemorIES (host runtime)",
                "paper sim", "paper IES");
    for (int i = 0; i < 4; ++i) {
        const double instr = instructions_for(sizes[i]);
        const double augmint_secs = instr / paper_sim_instr_per_sec;
        const double ies_secs = instr / host_ips;
        std::printf("%-4u %-22s %-22s %-12s %-10s\n", sizes[i],
                    sim::humanTime(augmint_secs).c_str(),
                    sim::humanTime(ies_secs).c_str(), paper_augmint[i],
                    paper_ies[i]);
    }

    std::printf("\nshape check: execution-driven simulation is %.0fx "
                "slower than the real-time host\n(paper: 47min / 3s = "
                "940x at m=20).\n",
                host_ips / paper_sim_instr_per_sec);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
