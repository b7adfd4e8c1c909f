/**
 * @file
 * One IESSERV session: a private bus + console + board (+ twin fleet)
 * behind the console grammar, with a suspend/resume story.
 *
 * Lifecycle state machine (docs/SERVICE.md):
 *
 *   Fresh --configure--> Fresh --init--> Serving --feed*--> Serving
 *     Serving --session suspend--> Suspended (connection closes)
 *     Fresh --session resume <name>--> Serving (state restored)
 *     Serving --quarantine w/o twin--> Evicted (connection closes)
 *
 * Suspend writes one file, `<state-dir>/<name>.ckpt`, through one
 * call of the checkpoint layer's atomic-write primitive, so it is
 * all-or-nothing: a failed suspend leaves the previous file as it
 * was. The file is an IESCKPT container holding the main board's own
 * sections (so `ckpt info` and `load-state` read it), a session
 * section (name, stream scalars, twin roster, the console's config
 * lines) and one section per twin board with that twin's own
 * container bytes (docs/SERVICE.md, docs/FORMATS.md §7).
 *
 * Resume parses and CRC-checks the whole file and decodes the session
 * section before the console runs a line, then replays the config
 * lines, restores every board and only then plugs the main board in
 * (Console::initFrom), and restores the stream scalars — a resumed
 * session continues the cycle-delta chain exactly where the suspended
 * one stopped, so the conformance tier can require byte-identical
 * counters across the break. A resume that fails at any step leaves
 * the session as it was before the command.
 *
 * The Session is transport-free (it maps request lines to reply
 * strings); the daemon owns sockets, the tests call execute() in
 * process — one behavior, two carriers.
 */

#ifndef MEMORIES_SERVICE_SESSION_HH
#define MEMORIES_SERVICE_SESSION_HH

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bus/bus6xx.hh"
#include "ies/console.hh"
#include "service/stream.hh"

namespace memories::service
{

/** Session tunables shared by daemon and in-process tests. */
struct SessionOptions
{
    /** Directory for suspended-session files. */
    std::string stateDir = "iesserv-state";
    /** Most records accepted on one feed line. */
    std::size_t maxBatch = 4096;
};

/** One client's console, board, twin fleet, and stream state. */
class Session
{
  public:
    explicit Session(const SessionOptions &options, std::string name);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Execute one request line and return the reply text ("error: ..."
     * for failures, like the console). The console records the config
     * lines suspend persists; the session serves the `session` family.
     */
    std::string execute(const std::string &line);

    /**
     * Returns a copy under the name lock: the daemon reads session
     * names from other threads (`server evict <name>`) while the
     * owning thread may be renaming concurrently.
     */
    std::string name() const
    {
        std::lock_guard<std::mutex> lock(nameMu_);
        return name_;
    }
    ies::Console &console() { return *console_; }
    StreamIngest &ingest() { return ingest_; }

    /** True after `session suspend` completed; close the connection. */
    bool suspended() const { return suspendedOk_; }

    /** True when the health ladder ran out of twins; evict. */
    bool evictRequested() const { return ingest_.evictRequested(); }

    /** The one file a suspend of @p name writes. */
    static std::string statePath(const std::string &state_dir,
                                 const std::string &name);

  private:
    std::string handleSession(const std::vector<std::string> &tokens);
    std::string suspend();
    std::string resume(const std::string &name);
    void setName(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(nameMu_);
        name_ = name;
    }

    SessionOptions options_;
    /** Guards name_ against the daemon's cross-thread evict lookup. */
    mutable std::mutex nameMu_;
    std::string name_;
    std::unique_ptr<bus::Bus6xx> bus_;
    std::unique_ptr<ies::Console> console_;
    StreamIngest ingest_;
    bool suspendedOk_ = false;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_SESSION_HH
