/**
 * @file
 * Custom coherence protocols via map files (paper section 3.2):
 * author a protocol as a text state-transition table, load it into a
 * node controller, and compare it against built-in MESI on identical
 * traffic — different tables on different node controllers in the
 * same measurement, exactly as the paper describes.
 *
 * The custom protocol here is "MEI-RB": no Shared state (every fill
 * is Exclusive; remote readers *steal* the line rather than share
 * it) — a read-broadcast-averse design whose extra invalidation
 * traffic the board makes visible immediately.
 *
 * Usage: custom_protocol [--refs=<millions>]
 */

#include <cstdio>

#include "common/cmdline.hh"
#include "memories/memories.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t refs = parseRefs(argc, argv, 10);

    // A complete protocol as the text map-file format.
    static const char *mei_rb_map = R"(
protocol MEI-RB
# Fills are always Exclusive: there is no Shared state.
requester READ   I *    -> E alloc
requester IFETCH I *    -> E alloc
requester RWITM  * *    -> M alloc
requester DCLAIM * *    -> M alloc
requester WB     * *    -> M alloc
requester WKILL  * *    -> M alloc
requester FLUSH  * *    -> I
requester KILL   * *    -> I
requester CLEAN  M *    -> E
# Remote readers steal the only copy; writers invalidate it.
snooper READ   E -> I none
snooper READ   M -> I modified
snooper IFETCH E -> I none
snooper IFETCH M -> I modified
snooper RWITM  E -> I none
snooper RWITM  M -> I modified
snooper DCLAIM E -> I none
snooper DCLAIM M -> I modified
snooper WKILL  E -> I none
snooper WKILL  M -> I modified
snooper FLUSH  E -> I none
snooper FLUSH  M -> I modified
snooper KILL   E -> I none
snooper KILL   M -> I none
)";

    const auto custom = protocol::parseMapText(mei_rb_map);
    std::printf("loaded protocol '%s'\n", custom.name().c_str());

    // Read-heavy shared traffic: the worst case for a no-Shared
    // protocol.
    workload::UniformWorkload wl(8, 1 * MiB, 0.10, 77);
    host::HostMachine machine(host::s7aConfig(), wl);

    // Two target machines over identical traffic: MESI vs MEI-RB,
    // each as a 2-node x 4-CPU configuration.
    ies::BoardConfig cfg;
    for (unsigned m = 0; m < 2; ++m) {
        for (unsigned n = 0; n < 2; ++n) {
            ies::NodeConfig node;
            node.cache = cache::CacheConfig{
                4 * MiB, 4, 128, cache::ReplacementPolicy::LRU};
            node.protocol =
                m == 0 ? protocol::makeMesiTable() : custom;
            node.targetMachine = m;
            node.label = (m == 0 ? "MESI/node" : "MEI-RB/node") +
                         std::to_string(n);
            for (unsigned c = 0; c < 4; ++c)
                node.cpus.push_back(static_cast<CpuId>(4 * n + c));
            cfg.nodes.push_back(std::move(node));
        }
    }
    // Report configuration problems as a list instead of aborting
    // inside the board build (a hand-written protocol plus hand-wired
    // CPU maps is exactly where several mistakes land at once).
    if (const auto errors = cfg.validationErrors(); !errors.empty()) {
        std::fprintf(stderr, "invalid board configuration:\n");
        for (const auto &e : errors)
            std::fprintf(stderr, "  - %s\n", e.c_str());
        return 1;
    }
    auto board = ies::MemoriesBoard::make(cfg);
    board->plugInto(machine.bus());
    machine.run(refs);
    board->drainAll();

    std::printf("\n%-14s %10s %14s %14s\n", "node", "miss ratio",
                "remote-inv", "supplied-mod");
    for (std::size_t n = 0; n < board->numNodes(); ++n) {
        const auto s = board->node(n).stats();
        std::printf("%-14s %10.4f %14llu %14llu\n",
                    board->node(n).config().label.c_str(), s.missRatio(),
                    static_cast<unsigned long long>(
                        s.remoteInvalidations),
                    static_cast<unsigned long long>(
                        s.suppliedModified));
    }

    std::uint64_t mesi_inv = 0, meirb_inv = 0;
    for (unsigned n = 0; n < 2; ++n) {
        mesi_inv += board->node(n).stats().remoteInvalidations;
        meirb_inv += board->node(2 + n).stats().remoteInvalidations;
    }
    std::printf("\nthe no-Shared protocol suffers %.1fx the remote "
                "invalidations of MESI on\nread-shared data - visible "
                "after one run, no silicon respin required.\n",
                mesi_inv ? static_cast<double>(meirb_inv) /
                               static_cast<double>(mesi_inv)
                         : 0.0);

    // Round-trip: the custom table serializes back to map text.
    std::printf("\nserialized table is %zu bytes of map text\n",
                custom.toMapText().size());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
