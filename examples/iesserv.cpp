/**
 * @file
 * iesserv: the IESSERV multi-tenant emulation daemon.
 *
 * Serves the console grammar over an AF_UNIX socket; each connection
 * gets a private session (bus + board + twin fleet + stream ingest)
 * with credit-paced admission control, suspend/resume, and the health
 * eviction ladder (docs/SERVICE.md). Talk to it with any line client:
 *
 *   ./iesserv --socket=/tmp/ies.sock &
 *   bench/loadtest --socket=/tmp/ies.sock --clients=8
 *
 * Usage: iesserv [--socket=PATH] [--state-dir=DIR] [--max-sessions=N]
 *                [--max-batch=N] [--window=REQUESTS] [--jsonl=PATH]
 *
 * A malformed, unknown or zero argument exits 2 with the usage.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "common/cmdline.hh"
#include "service/daemon.hh"

namespace
{

std::atomic<bool> stopRequested{false};

void
onSignal(int)
{
    stopRequested.store(true);
}

int
program(int argc, char **argv)
{
    using namespace memories;

    service::DaemonOptions options;
    options.socketPath = "/tmp/iesserv.sock";
    options.stateDir = "/tmp/iesserv-state";

    CommandLine("[--socket=PATH] [--state-dir=DIR] [--max-sessions=N] "
                "[--max-batch=N] [--window=REQUESTS] [--jsonl=PATH]")
        .flag("--socket", options.socketPath)
        .flag("--state-dir", options.stateDir)
        .flag("--max-sessions", options.maxSessions, 1)
        .flag("--max-batch", options.maxBatch, 1)
        .flag("--window", options.windowRequests)
        .flag("--jsonl", options.jsonlPath)
        .parseOrExit(argc, argv);

    service::Daemon daemon(options);
    daemon.start();
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

} // namespace

int
main(int argc, char **argv)
{
    return memories::runMain(argc, argv, program);
}
