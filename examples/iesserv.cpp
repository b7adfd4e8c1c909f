/**
 * @file
 * iesserv: the IESSERV multi-tenant emulation daemon.
 *
 * Serves the console grammar over an AF_UNIX socket; each connection
 * gets a private session (bus + board + twin fleet + stream ingest)
 * with credit-paced admission control, suspend/resume, and the health
 * eviction ladder (docs/SERVICE.md). Talk to it with any line client:
 *
 *   ./iesserv --socket /tmp/ies.sock &
 *   bench/loadtest --socket /tmp/ies.sock --clients 8
 *
 * Usage: iesserv [--socket <path>] [--state-dir <dir>]
 *                [--max-sessions <n>] [--max-batch <n>]
 *                [--window <requests>] [--jsonl <path>]
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "common/logging.hh"
#include "common/units.hh"
#include "service/daemon.hh"

namespace
{

constexpr const char *usage =
    "usage: iesserv [--socket <path>] [--state-dir <dir>] "
    "[--max-sessions <n>] [--max-batch <n>] [--window <requests>] "
    "[--jsonl <path>]\n";

std::atomic<bool> stopRequested{false};

void
onSignal(int)
{
    stopRequested.store(true);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace memories;

    service::DaemonOptions options;
    options.socketPath = "/tmp/iesserv.sock";
    options.stateDir = "/tmp/iesserv-state";

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> std::string {
                if (i + 1 >= argc)
                    fatal(arg, " needs a value");
                return argv[++i];
            };
            if (arg == "--socket")
                options.socketPath = value();
            else if (arg == "--state-dir")
                options.stateDir = value();
            else if (arg == "--max-sessions")
                options.maxSessions = parseUnsigned(value(), arg);
            else if (arg == "--max-batch")
                options.maxBatch = parseUnsigned(value(), arg);
            else if (arg == "--window")
                options.windowRequests = parseUnsigned(value(), arg);
            else if (arg == "--jsonl")
                options.jsonlPath = value();
            else
                fatal("unknown option '", arg, "'");
        }
        if (options.maxSessions == 0 || options.maxBatch == 0)
            fatal("--max-sessions and --max-batch must be positive");
    } catch (const FatalError &e) {
        std::fprintf(stderr, "iesserv: %s\n%s", e.what(), usage);
        return 2;
    }

    service::Daemon daemon(options);
    try {
        daemon.start();
    } catch (const FatalError &e) {
        std::fprintf(stderr, "iesserv: %s\n", e.what());
        return 1;
    }
    std::printf("iesserv listening on %s (state %s, max %zu sessions)\n",
                options.socketPath.c_str(), options.stateDir.c_str(),
                options.maxSessions);
    std::fflush(stdout);

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!stopRequested.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(100));

    std::printf("iesserv: draining %llu active sessions...\n",
                static_cast<unsigned long long>(daemon.sessionsActive()));
    daemon.stop();
    std::printf("iesserv: served %llu requests across %llu sessions "
                "(%llu refs accepted)\n",
                static_cast<unsigned long long>(daemon.requestsServed()),
                static_cast<unsigned long long>(daemon.sessionsOpened()),
                static_cast<unsigned long long>(daemon.refsAccepted()));
    return 0;
}
