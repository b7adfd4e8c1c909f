/**
 * @file
 * Figure 10 reproduction: the TPC-C miss-ratio profile over a long
 * run, showing periodic spikes — the OS file-system journaling bug of
 * Case Study 2 — present at *every* cache size (16MB direct-mapped
 * and 1GB 8-way set-associative in the paper).
 *
 * Methodology: the OLTP generator injects an append-only journal
 * burst every period; because the journal stream never revisits
 * recent lines it misses in any cache, so the interval miss ratio
 * spikes identically for both emulated geometries. The console-side
 * IntervalSeries reproduces the figure's time axis by differencing
 * the board's cumulative counters every interval.
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
    bench::banner("Figure 10: TPC-C miss-ratio profile over time",
                  "periodic spikes every ~5 minutes at 16MB-DM and "
                  "1GB-8way alike");

    const std::uint64_t refs = args.refsOrDefault(60.0);
    const int intervals = 72;
    const int bursts = 8; // journaling fires 8 times across the run

    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes =
        static_cast<std::uint64_t>(args.scale * 512 * MiB);
    oltp.theta = 0.90;
    oltp.journaling = true;
    oltp.journalPeriodRefs = refs / bursts;
    oltp.journalBurstRefs = refs / (bursts * 12);
    workload::OltpWorkload wl(oltp);
    host::HostMachine machine(host::s7aConfig(), wl);

    ies::MemoriesBoard board(ies::makeMultiConfigBoard(
        {cache::CacheConfig{16 * MiB, 1, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{1 * GiB, 8, 128,
                            cache::ReplacementPolicy::LRU}},
        8));
    board.plugInto(machine.bus());

    std::vector<std::vector<double>> series(2);
    std::vector<std::uint64_t> prev_refs(2, 0), prev_misses(2, 0);
    const std::uint64_t chunk = refs / intervals;
    for (int i = 0; i < intervals; ++i) {
        machine.run(chunk);
        board.drainAll();
        for (std::size_t n = 0; n < 2; ++n) {
            const auto s = board.node(n).stats();
            const auto d_refs = s.localRefs - prev_refs[n];
            const auto d_miss = s.localMisses - prev_misses[n];
            series[n].push_back(ratio(d_miss, d_refs));
            prev_refs[n] = s.localRefs;
            prev_misses[n] = s.localMisses;
        }
    }

    const char *labels[2] = {"16MB direct-mapped", "1GB 8-way"};
    for (std::size_t n = 0; n < 2; ++n) {
        std::printf("\n%s (interval miss ratio):\n%s\n", labels[n],
                    sparkline(series[n]).c_str());
        double lo = 1.0, hi = 0.0;
        for (double v : series[n]) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        std::printf("min %.4f  max %.4f  (spike amplification "
                    "%.1fx)\n", lo, hi, lo > 0 ? hi / lo : 0.0);
    }

    // Count spikes: intervals whose miss ratio exceeds 1.5x the
    // series median, in the large-cache curve where spikes stand out.
    auto spike_count = [](std::vector<double> s) {
        // Skip the directory-fill transient at the front; at paper
        // scale (hours) it is invisible.
        s.erase(s.begin(), s.begin() + 10);
        auto sorted = s;
        std::sort(sorted.begin(), sorted.end());
        const double median = sorted[sorted.size() / 2];
        int count = 0;
        bool in_spike = false;
        for (double v : s) {
            const bool spiking = v > median + 0.08;
            count += spiking && !in_spike;
            in_spike = spiking;
        }
        return count;
    };
    std::printf("\nshape check: %d spike episodes at 16MB, %d at 1GB "
                "(journaling fired %d times);\nthe spikes appear at "
                "both cache sizes, implicating software, not cache "
                "design.\n",
                spike_count(series[0]), spike_count(series[1]), bursts);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
