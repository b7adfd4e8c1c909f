/**
 * @file
 * The IESSERV daemon: many concurrent sessions over one local socket.
 *
 * Transport: an AF_UNIX stream socket (local-host service; the paper's
 * console link is a parallel-port cable — a unix socket is its modern
 * equivalent, and it keeps the daemon off the network by construction).
 * One accept loop hands each connection to a session thread running a
 * private service::Session — no emulated state is shared between
 * sessions, so cross-session interference can only enter through the
 * daemon's own bookkeeping, which is why that bookkeeping is confined
 * to relaxed atomics and two small mutexes (slots, telemetry) that the
 * TSan tier hammers.
 *
 * Daemon-level command family (registered on every session's console,
 * so it shares the grammar and shows up in `help`):
 *
 *   server status        -- sessions, requests, totals
 *   server metrics       -- last Prometheus exposition (telemetry)
 *   server evict <name>  -- administratively evict a session
 *
 * Eviction and death: an evicted session (operator `server evict`, or
 * the health ladder running out of twins) and a dead client (socket
 * drop, SIGKILL) end the same way — the session thread unwinds,
 * its Session is destroyed (boards, fleet, console reclaimed), and the
 * accept loop reaps the slot. Other sessions never observe it.
 *
 * Telemetry: daemon totals go through a Sampler windowed on *requests
 * served* (the daemon's natural clock). At each window the daemon
 * renders the Prometheus exposition, rewrites <stateDir>/metrics.prom
 * with it and appends the window to the optional JSONL stream.
 * `server metrics` returns the same exposition over the wire for
 * scrape-less tests. A failed metrics.prom write is reported through
 * warn() and costs no request: `server metrics` keeps answering with
 * the last text rendered.
 */

#ifndef MEMORIES_SERVICE_DAEMON_HH
#define MEMORIES_SERVICE_DAEMON_HH

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/session.hh"
#include "service/wire.hh"
#include "telemetry/sampler.hh"

namespace memories::service
{

/** Daemon tunables. */
struct DaemonOptions
{
    /** AF_UNIX socket path (unlinked and rebound on start). */
    std::string socketPath = "iesserv.sock";
    /** Session state directory (suspend artifacts, metrics file). */
    std::string stateDir = "iesserv-state";
    /** Concurrent session cap; further connects get `err server full`. */
    std::size_t maxSessions = 64;
    /** Per-session feed batch limit. */
    std::size_t maxBatch = 4096;
    /** Requests per telemetry window. */
    std::uint64_t windowRequests = 64;
    /** Optional JSONL telemetry stream path ("" = off), opened by
     *  start(). */
    std::string jsonlPath;
};

/** Multi-session emulation service over a local socket. */
class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Open the JSONL stream, bind, listen, and spawn the accept loop.
     *  fatal() when the stream cannot be created or on bind/listen
     *  failure (stale sockets are unlinked first). */
    void start();

    /** Close everything: stop accepting, wake and join every session
     *  thread, unlink the socket, export the trailing window and close
     *  the JSONL stream. Idempotent; never throws. */
    void stop();

    const std::string &socketPath() const { return options_.socketPath; }

    /** The metrics file rewritten at every telemetry window. */
    std::string metricsPath() const
    {
        return options_.stateDir + "/metrics.prom";
    }

    // Lifetime totals (relaxed; exact once the writers are joined).
    std::uint64_t sessionsOpened() const { return opened_.load(); }
    std::uint64_t sessionsActive() const;
    std::uint64_t sessionsEvicted() const { return evicted_.load(); }
    std::uint64_t sessionsSuspended() const { return suspended_.load(); }
    std::uint64_t sessionsRejected() const { return rejected_.load(); }
    std::uint64_t requestsServed() const { return requests_.load(); }
    std::uint64_t refsAccepted() const { return refsAccepted_.load(); }

  private:
    struct Slot
    {
        std::uint64_t id = 0;
        std::unique_ptr<LineChannel> channel;
        std::unique_ptr<Session> session;
        std::thread thread;
        std::atomic<bool> done{false};
        std::atomic<bool> evict{false};
    };

    void acceptLoop();
    void serveClient(Slot &slot);
    void reapFinishedLocked();
    std::string handleServer(Slot &slot,
                             const std::vector<std::string> &tokens);
    std::string renderStatus();
    void tickTelemetry();
    void exportWindow(const telemetry::WindowRecord &window);
    void wakeAcceptLoop();

    DaemonOptions options_;
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::thread acceptThread_;
    std::atomic<bool> running_{false};

    mutable std::mutex slotsMu_;
    std::vector<std::unique_ptr<Slot>> slots_;
    std::uint64_t nextId_ = 1;

    // Telemetry: totals are relaxed atomics (any thread bumps them);
    // the sampler and everything below it are driven under
    // telemetryMu_ with the request count as the clock.
    std::atomic<std::uint64_t> opened_{0};
    std::atomic<std::uint64_t> closed_{0};
    std::atomic<std::uint64_t> evicted_{0};
    std::atomic<std::uint64_t> suspended_{0};
    std::atomic<std::uint64_t> rejected_{0};
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<std::uint64_t> refsOffered_{0};
    std::atomic<std::uint64_t> refsAccepted_{0};
    std::atomic<std::uint64_t> backpressure_{0};

    std::mutex telemetryMu_;
    telemetry::Sampler sampler_;
    /** The last exposition rendered (`server metrics`). */
    std::string metrics_;
    /** A metrics.prom write has failed since the last one that worked. */
    bool metricsFailing_ = false;
    /** The --jsonl stream, open from start() to stop(). */
    std::ofstream jsonl_;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_DAEMON_HH
