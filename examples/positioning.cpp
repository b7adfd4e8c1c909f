/**
 * @file
 * Workload positioning via directory checkpoints — the capability
 * paper §4.2 credits to Embra and concedes the hardware board lacks
 * ("MemorIES ... does not allow the positioning of a workload").
 * The software board does: warm the directories once, checkpoint,
 * then fan out measurements from the interesting point without ever
 * replaying the warmup.
 *
 * Usage: positioning [--refs=<millions>]
 */

#include <cstdio>
#include <string>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

using namespace memories;

ies::BoardConfig
boardConfig()
{
    return ies::makeUniformBoard(
        1, 8,
        cache::CacheConfig{64 * MiB, 4, 128,
                           cache::ReplacementPolicy::LRU});
}

workload::OltpParams
oltpParams()
{
    workload::OltpParams p;
    p.threads = 8;
    p.dbBytes = 256 * MiB;
    return p;
}

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t refs = parseRefs(argc, argv, 10);
    const std::string state = "/tmp/memories_positioning.state";

    // Phase 1: one long warmup, checkpointed at the steady state.
    {
        workload::OltpWorkload wl(oltpParams());
        host::HostMachine machine(host::s7aConfig(), wl);
        auto board = ies::MemoriesBoard::make(boardConfig());
        board->plugInto(machine.bus());
        std::printf("warming %llu refs once...\n",
                    static_cast<unsigned long long>(refs));
        machine.run(refs);
        board->drainAll();
        board->saveState(state);
        std::printf("checkpointed %llu warm directory lines\n\n",
                    static_cast<unsigned long long>(
                        board->node(0).directoryOccupancy()));
    }

    // Phase 2: three measurement variants, each starting at the
    // checkpoint instead of re-warming (here: different write mixes,
    // as a design study would sweep).
    std::printf("%-22s %12s %12s\n", "variant", "miss ratio",
                "refs measured");
    for (double write_frac : {0.05, 0.25, 0.45}) {
        auto params = oltpParams();
        params.writeFrac = write_frac;
        workload::OltpWorkload wl(params);
        host::HostMachine machine(host::s7aConfig(), wl);
        auto board = ies::MemoriesBoard::make(boardConfig());
        board->loadState(state);
        board->plugInto(machine.bus());
        machine.run(refs / 4); // short measurement window
        board->drainAll();
        const auto s = board->node(0).stats();
        char label[32];
        std::snprintf(label, sizeof(label), "writeFrac=%.2f",
                      write_frac);
        std::printf("%-22s %12.4f %12llu\n", label, s.missRatio(),
                    static_cast<unsigned long long>(s.localRefs));
    }

    // Contrast: the same short window from a cold board.
    {
        workload::OltpWorkload wl(oltpParams());
        host::HostMachine machine(host::s7aConfig(), wl);
        auto board = ies::MemoriesBoard::make(boardConfig());
        board->plugInto(machine.bus());
        machine.run(refs / 4);
        board->drainAll();
        std::printf("%-22s %12.4f   (cold-start bias)\n", "cold, no "
                    "checkpoint", board->node(0).stats().missRatio());
    }

    std::printf("\nthe warm-start variants measure steady-state "
                "behaviour in a quarter of the\nreferences; the cold "
                "run of the same length is still paying compulsory "
                "misses.\n");
    std::remove(state.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
