/**
 * @file
 * Commercial-workload scaling study: OLTP (TPC-C-like), DSS
 * (TPC-H-like) and a web server measured against the same L3 sweep in
 * one session each — the "transaction processing, decision support,
 * and web server workloads" sentence of Case Study 3.
 *
 * Usage: commercial_mix [--refs=<millions>]
 */

#include <cstdio>
#include <memory>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

void
study(const char *label, workload::Workload &wl, std::uint64_t refs)
{
    host::HostMachine machine(host::s7aConfig(), wl);
    auto board = ies::MemoriesBoard::make(ies::makeMultiConfigBoard(
        {cache::CacheConfig{16 * MiB, 4, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{64 * MiB, 4, 128,
                            cache::ReplacementPolicy::LRU},
         cache::CacheConfig{256 * MiB, 8, 128,
                            cache::ReplacementPolicy::LRU}},
        8));
    board->plugInto(machine.bus());
    machine.run(refs);
    board->drainAll();

    std::printf("%-10s footprint %-8s |", label,
                formatByteSize(wl.footprintBytes()).c_str());
    for (const auto &point : ies::missRatioCurve(*board))
        std::printf("  %s: %.4f", formatByteSize(point.sizeBytes).c_str(),
                    point.missRatio);
    std::printf("  (bus util %.1f%%)\n",
                100.0 * machine.bus().stats().utilization(
                            machine.bus().now()));
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t refs = parseRefs(argc, argv, 15);

    std::printf("L3 miss ratios by commercial workload class "
                "(16MB / 64MB / 256MB):\n\n");

    workload::OltpParams oltp;
    oltp.threads = 8;
    oltp.dbBytes = 1 * GiB;
    workload::OltpWorkload tpcc(oltp);
    study("TPC-C", tpcc, refs);

    workload::DssParams dss;
    dss.threads = 8;
    dss.factBytes = 2 * GiB;
    dss.dimBytes = 256 * MiB;
    workload::DssWorkload tpch(dss);
    study("TPC-H", tpch, refs);

    workload::WebParams web;
    web.threads = 8;
    web.docBytes = 1 * GiB;
    workload::WebWorkload www(web);
    study("web", www, refs);

    std::printf("\nreading: OLTP rewards every L3 doubling (broad page "
                "pool); DSS has a streaming\nfloor; the web server's "
                "Zipf head is captured early, so its curve flattens "
                "first.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
