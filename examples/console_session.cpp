/**
 * @file
 * Console-driven session: the workflow the paper's console PC runs —
 * configure nodes over the command interface, initialize the board,
 * let the host run, extract statistics, capture and dump a trace.
 *
 * The console here carries the SAME command registry the IESSERV
 * daemon serves over its socket: the stream-ingest families (feed /
 * drain / stream / fleet) and the campaign family are plugged in
 * through Console::registerCommand, so interactive, campaign, and
 * service sessions share one grammar (`help` lists all of it — the
 * service console test asserts exactly that).
 *
 * Usage: console_session [--refs=<millions>]
 */

#include <cstdio>
#include <string>

#include "campaign/console.hh"
#include "common/cmdline.hh"
#include "memories/memories.hh"
#include "service/stream.hh"

namespace
{

int
program(int argc, char **argv)
{
    using namespace memories;
    const std::uint64_t refs = parseRefs(argc, argv, 5);

    workload::DssParams dss;
    dss.threads = 8;
    dss.factBytes = 512 * MiB;
    dss.dimBytes = 64 * MiB;
    workload::DssWorkload wl(dss);
    host::HostMachine machine(host::s7aConfig(), wl);

    ies::Console console(machine.bus());
    // One shared registry: the exact extension families an IESSERV
    // daemon session would register (service::Session does the same
    // calls), so every command below is also speakable on the wire.
    service::StreamIngest ingest;
    ingest.registerCommands(console);
    campaign::registerConsoleCommands(console);

    const char *session[] = {
        "help",
        "node 0 cache 64MB 4 128B LRU",
        "node 0 cpus 0,1,2,3",
        "node 0 protocol MESI",
        "node 1 cache 64MB 4 128B LRU",
        "node 1 cpus 4,5,6,7",
        "node 1 protocol MOESI",
        "buffer 512",
        "throughput 42",
        "capture 1000000",
        "init",
    };
    for (const char *cmd : session)
        std::printf("> %s\n%s\n", cmd, console.execute(cmd).c_str());

    std::printf("running %llu references...\n",
                static_cast<unsigned long long>(refs));
    machine.run(refs);
    console.board()->drainAll();

    std::printf("> stats\n%s\n", console.execute("stats").c_str());

    const std::string trace_path = "/tmp/memories_console_trace.ies";
    std::printf("> dump-trace %s\n%s\n", trace_path.c_str(),
                console.execute("dump-trace " + trace_path).c_str());

    // The service grammar, interactively: add a same-config twin board
    // (the health ladder's resync donor in a daemon session) and
    // replay the captured trace through the ingest path the daemon
    // uses for uploads. A replay feeds the trace's own cycles, which
    // this board's clock has run past, so it goes to a fresh console
    // staged with the same lines.
    bus::Bus6xx replay_bus;
    ies::Console replay(replay_bus);
    service::StreamIngest replay_ingest;
    replay_ingest.registerCommands(replay);
    for (const char *cmd : session)
        replay.execute(cmd);
    const std::string serviceCmds[] = {
        "fleet add twin0 7",
        "stream replay " + trace_path,
        "stream status",
        "fleet list",
        "drain",
    };
    for (const std::string &cmd : serviceCmds)
        std::printf("> %s\n%s\n", cmd.c_str(), replay.execute(cmd).c_str());

    // Replay the captured trace through the detailed C simulator —
    // the validation loop the authors used for the board design.
    sim::DetailedParams detailed;
    detailed.cache = cache::CacheConfig{64 * MiB, 4, 128,
                                        cache::ReplacementPolicy::LRU};
    sim::DetailedCacheSimulator csim(detailed);
    const auto replayed = csim.runTrace(trace_path);
    std::printf("replayed %llu records through the detailed simulator: "
                "miss ratio %.4f (mean latency %.1f cycles)\n",
                static_cast<unsigned long long>(replayed),
                csim.stats().missRatio(),
                csim.stats().meanLatencyCycles);
    std::remove(trace_path.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
