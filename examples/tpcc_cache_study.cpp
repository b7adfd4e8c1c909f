/**
 * @file
 * OLTP cache design study: sweep emulated L3 geometries against one
 * TPC-C-like run, using the board's multi-configuration mode (up to
 * four geometries per pass, exactly like Figure 4 of the paper), and
 * watch the miss-ratio profile over time with the journaling bug of
 * Case Study 2 enabled.
 *
 * Usage: tpcc_cache_study [--refs=<millions>]
 */

#include <cstdio>
#include <vector>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

void
sweepGeometries(workload::OltpParams oltp, std::uint64_t refs)
{
    std::printf("=== L3 geometry sweep (one pass per 4 configs) ===\n");
    const std::vector<cache::CacheConfig> configs = {
        {16 * MiB, 1, 128, cache::ReplacementPolicy::LRU},
        {16 * MiB, 4, 128, cache::ReplacementPolicy::LRU},
        {64 * MiB, 4, 128, cache::ReplacementPolicy::LRU},
        {256 * MiB, 8, 128, cache::ReplacementPolicy::LRU},
    };

    workload::OltpWorkload wl(oltp);
    host::HostMachine machine(host::s7aConfig(), wl);
    auto board = ies::MemoriesBoard::make(ies::makeMultiConfigBoard(configs, 8));
    board->plugInto(machine.bus());
    machine.run(refs);
    board->drainAll();

    std::printf("%-28s %12s %12s %10s\n", "configuration", "L3 refs",
                "misses", "ratio");
    for (std::size_t n = 0; n < board->numNodes(); ++n) {
        const auto s = board->node(n).stats();
        std::printf("%-28s %12llu %12llu %9.4f\n",
                    board->node(n).config().cache.describe().c_str(),
                    static_cast<unsigned long long>(s.localRefs),
                    static_cast<unsigned long long>(s.localMisses),
                    s.missRatio());
    }
}

void
journalingProfile(workload::OltpParams oltp, std::uint64_t refs)
{
    std::printf("\n=== miss-ratio profile with OS journaling bursts "
                "(Case Study 2) ===\n");
    oltp.journaling = true;
    oltp.journalPeriodRefs = refs / 8;
    oltp.journalBurstRefs = refs / 80;
    workload::OltpWorkload wl(oltp);
    host::HostMachine machine(host::s7aConfig(), wl);
    auto board = ies::MemoriesBoard::make(ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{64 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU}));
    board->plugInto(machine.bus());

    IntervalSeries series(20000);
    std::uint64_t prev_refs = 0, prev_misses = 0;
    const std::uint64_t chunk = refs / 64;
    for (std::uint64_t done = 0; done < refs; done += chunk) {
        machine.run(chunk);
        board->drainAll();
        const auto s = board->node(0).stats();
        series.record(s.localMisses - prev_misses,
                      s.localRefs - prev_refs);
        prev_misses = s.localMisses;
        prev_refs = s.localRefs;
    }
    series.finish();
    std::printf("interval miss-ratio sparkline (spikes = journaling):\n"
                "%s\n", sparkline(series.points()).c_str());
}

int
program(int argc, char **argv)
{
    const std::uint64_t refs = parseRefs(argc, argv, 20);

    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = 512 * MiB;

    sweepGeometries(oltp, refs);
    journalingProfile(oltp, refs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
