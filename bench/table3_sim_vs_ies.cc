/**
 * @file
 * Table 3 reproduction: execution time of the trace-driven C simulator
 * vs MemorIES, for trace sizes 32K, 256K, 10M and 10G references.
 *
 * Methodology:
 *  - measure the detailed C simulator's per-reference cost on this
 *    machine over a real in-memory trace replay, then scale the cost
 *    to the paper's 133MHz simulation host (ratios are unaffected);
 *  - MemorIES "runs" a trace in real time: N / effective reference
 *    rate. The published numbers correspond to an effective 1e7
 *    refs/s on the 100MHz bus (10 bus cycles per reference at the
 *    quoted 20% utilization of a multi-cycle tenure);
 *  - also measure our software board path's throughput, which is the
 *    reproduction-environment equivalent of the real-time claim.
 *
 * The absolute columns depend on host speed; the *shape* - software
 * simulation becoming prohibitive (days) where the board needs
 * minutes - is the reproduced result.
 */

#include <cstdio>
#include <vector>

#include "bench/benchutil.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

/** Synthesize a Zipf-skewed bus trace in memory. */
std::vector<bus::BusTransaction>
makeTrace(std::uint64_t n)
{
    std::vector<bus::BusTransaction> trace;
    trace.reserve(n);
    Rng rng(42);
    ZipfSampler zipf(1 << 22, 0.7);
    for (std::uint64_t i = 0; i < n; ++i) {
        bus::BusTransaction txn;
        txn.addr = zipf.sample(rng) * 128;
        txn.op = rng.nextBool(0.3) ? bus::BusOp::Rwitm
                                   : bus::BusOp::Read;
        txn.cpu = static_cast<CpuId>(rng.nextBounded(8));
        txn.cycle = 10 * i;
        trace.push_back(txn);
    }
    return trace;
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t sample = parseRefs(argc, argv, 2.0);
    bench::banner("Table 3: C simulator vs MemorIES execution time",
                  "32K->10B vectors; sim: 1s -> ~3 days; board: "
                  "3.28ms -> 16.67 min");

    const auto trace = makeTrace(sample);

    // Measure the detailed trace-driven simulator in the role the
    // paper's C simulator played: validating the four-node board, so
    // every reference is simulated at all four coherent node models
    // (each with its own event queue, banks and histograms).
    sim::DetailedParams detailed;
    detailed.cache = cache::CacheConfig{64 * MiB, 4, 128,
                                        cache::ReplacementPolicy::LRU};
    std::vector<sim::DetailedCacheSimulator> csims;
    for (int n = 0; n < 4; ++n)
        csims.emplace_back(detailed, 1 + n);
    bench::Stopwatch sim_clock;
    for (const auto &txn : trace) {
        for (auto &csim : csims)
            csim.process(txn);
    }
    for (auto &csim : csims)
        csim.finish();
    const double sim_ns_per_ref = sim_clock.seconds() * 1e9 /
                                  static_cast<double>(trace.size());

    // Measure the board path (address filter + buffer + node
    // controller) fed through a private bus.
    bus::Bus6xx bus;
    ies::MemoriesBoard board(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{64 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board.plugInto(bus);
    bench::Stopwatch board_clock;
    for (const auto &txn : trace) {
        bus.advanceTo(txn.cycle);
        bus.issue(txn);
    }
    board.drainAll();
    const double board_ns_per_ref = board_clock.seconds() * 1e9 /
                                    static_cast<double>(trace.size());

    std::printf("measured on this machine over %llu refs:\n"
                "  detailed C simulator: %.1f ns/ref\n"
                "  software board path:  %.1f ns/ref (%.1fx leaner)\n\n",
                static_cast<unsigned long long>(trace.size()),
                sim_ns_per_ref, board_ns_per_ref,
                sim_ns_per_ref / board_ns_per_ref);

    // Scale the simulator cost to the paper's 133MHz host.
    const double paper_sim_ns = sim::scaleToPaperHost(sim_ns_per_ref);

    const double sizes[] = {32768, 262144, 1e7, 1e10};
    const char *paper_sim[] = {"1 s", "8 s", "5 min", "~3 days"};
    const char *paper_ies[] = {"3.28 ms", "26.21 ms", "1 s",
                               "16.67 min"};

    std::printf("%-14s %-22s %-22s %-12s %-12s\n", "trace size",
                "C sim (133MHz proj.)", "MemorIES (real-time)",
                "paper sim", "paper IES");
    for (int i = 0; i < 4; ++i) {
        const double sim_secs =
            sim::simulatorSeconds(sizes[i], paper_sim_ns);
        const double ies_secs = sim::memoriesSeconds(sizes[i], 1e8, 0.10);
        std::printf("%-14.0f %-22s %-22s %-12s %-12s\n", sizes[i],
                    sim::humanTime(sim_secs).c_str(),
                    sim::humanTime(ies_secs).c_str(), paper_sim[i],
                    paper_ies[i]);
    }

    std::printf("\nshape check: the simulator is %.0fx slower than "
                "real-time emulation\n(paper: 1s / 3.28ms = ~300x at "
                "32K, ~260x at 10B).\n",
                paper_sim_ns * 1e-9 * 1e7);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
