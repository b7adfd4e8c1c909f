#include "service/daemon.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "telemetry/exporter.hh"

namespace memories::service
{

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      sampler_(options_.windowRequests ? options_.windowRequests : 1)
{
    auto relaxed = [](const std::atomic<std::uint64_t> &v) {
        return [&v] { return v.load(std::memory_order_relaxed); };
    };
    sampler_.addValue("serv.sessions.opened", relaxed(opened_));
    sampler_.addValue("serv.sessions.closed", relaxed(closed_));
    sampler_.addValue("serv.sessions.evicted", relaxed(evicted_));
    sampler_.addValue("serv.sessions.suspended", relaxed(suspended_));
    sampler_.addValue("serv.sessions.rejected", relaxed(rejected_));
    sampler_.addValue("serv.requests", relaxed(requests_));
    sampler_.addValue("serv.errors", relaxed(errors_));
    sampler_.addValue("serv.refs.offered", relaxed(refsOffered_));
    sampler_.addValue("serv.refs.accepted", relaxed(refsAccepted_));
    sampler_.addValue("serv.backpressure", relaxed(backpressure_));
    sampler_.addGauge("serv.sessions.active", [this] {
        return static_cast<double>(sessionsActive());
    });
    sampler_.addExporter(
        [this](const telemetry::WindowRecord &w) { exportWindow(w); });
}

Daemon::~Daemon()
{
    stop();
}

void
Daemon::start()
{
    if (running_.load())
        fatal("daemon already running");
    ckpt::ensureDir(options_.stateDir);
    if (!options_.jsonlPath.empty()) {
        std::lock_guard<std::mutex> lock(telemetryMu_);
        jsonl_.open(options_.jsonlPath, std::ios::trunc);
        if (!jsonl_)
            fatal("cannot create telemetry file '", options_.jsonlPath,
                  "'");
    }

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof addr.sun_path)
        fatal("socket path '", options_.socketPath, "' is too long (",
              options_.socketPath.size(), " >= ", sizeof addr.sun_path,
              ")");
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("socket(AF_UNIX): ", std::strerror(errno));
    ::unlink(options_.socketPath.c_str()); // stale socket from a crash
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        fatal("bind('", options_.socketPath, "'): ",
              std::strerror(errno));
    if (::listen(listenFd_, 64) != 0)
        fatal("listen('", options_.socketPath, "'): ",
              std::strerror(errno));
    if (::pipe(wakePipe_) != 0)
        fatal("pipe: ", std::strerror(errno));

    running_.store(true);
    acceptThread_ = std::thread([this] { acceptLoop(); });
}

void
Daemon::wakeAcceptLoop()
{
    if (wakePipe_[1] >= 0) {
        const char byte = 1;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
    }
}

void
Daemon::stop()
{
    if (!running_.exchange(false)) {
        // Never started (or already stopped): nothing to unwind.
        return;
    }
    wakeAcceptLoop();
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }

    // Wake every session thread out of its blocking read and join.
    std::vector<std::unique_ptr<Slot>> slots;
    {
        std::lock_guard<std::mutex> lock(slotsMu_);
        slots.swap(slots_);
    }
    for (auto &slot : slots)
        slot->channel->shutdownBoth();
    for (auto &slot : slots)
        if (slot->thread.joinable())
            slot->thread.join();
    slots.clear();

    for (int i = 0; i < 2; ++i)
        if (wakePipe_[i] >= 0) {
            ::close(wakePipe_[i]);
            wakePipe_[i] = -1;
        }
    ::unlink(options_.socketPath.c_str());

    {
        std::lock_guard<std::mutex> lock(telemetryMu_);
        sampler_.finish(requests_.load(std::memory_order_relaxed));
        jsonl_.close();
    }
}

std::uint64_t
Daemon::sessionsActive() const
{
    std::lock_guard<std::mutex> lock(slotsMu_);
    std::uint64_t active = 0;
    for (const auto &slot : slots_)
        active += !slot->done.load(std::memory_order_acquire);
    return active;
}

void
Daemon::reapFinishedLocked()
{
    for (auto it = slots_.begin(); it != slots_.end();) {
        if ((*it)->done.load(std::memory_order_acquire)) {
            if ((*it)->thread.joinable())
                (*it)->thread.join();
            it = slots_.erase(it);
        } else {
            ++it;
        }
    }
}

void
Daemon::acceptLoop()
{
    while (running_.load()) {
        pollfd fds[2] = {{listenFd_, POLLIN, 0},
                         {wakePipe_[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents) {
            // One read per wake; the pipe is blocking, and poll only
            // promised that at least one byte is ready. Leftover bytes
            // just trigger another (harmless) loop iteration.
            char drain[64];
            [[maybe_unused]] ssize_t n =
                ::read(wakePipe_[0], drain, sizeof drain);
        }
        {
            std::lock_guard<std::mutex> lock(slotsMu_);
            reapFinishedLocked();
        }
        if (!running_.load())
            break;
        if (!(fds[0].revents & POLLIN))
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;

        std::lock_guard<std::mutex> lock(slotsMu_);
        std::uint64_t active = 0;
        for (const auto &slot : slots_)
            active += !slot->done.load(std::memory_order_acquire);
        if (active >= options_.maxSessions) {
            LineChannel turned(fd);
            turned.sendReply(false, "server full (" +
                                        std::to_string(active) + "/" +
                                        std::to_string(
                                            options_.maxSessions) +
                                        " sessions)");
            rejected_.fetch_add(1, std::memory_order_relaxed);
            continue;
        }

        auto slot = std::make_unique<Slot>();
        slot->id = nextId_++;
        slot->channel = std::make_unique<LineChannel>(fd);
        SessionOptions sessionOptions;
        sessionOptions.stateDir = options_.stateDir;
        sessionOptions.maxBatch = options_.maxBatch;
        slot->session = std::make_unique<Session>(
            sessionOptions, "s" + std::to_string(slot->id));
        opened_.fetch_add(1, std::memory_order_relaxed);
        Slot *raw = slot.get();
        slot->thread = std::thread([this, raw] { serveClient(*raw); });
        slots_.push_back(std::move(slot));
    }
}

void
Daemon::tickTelemetry()
{
    const std::uint64_t now =
        requests_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(telemetryMu_);
    sampler_.advanceTo(now);
}

void
Daemon::exportWindow(const telemetry::WindowRecord &w)
{
    // Truncate and rewrite, unsynced: a scraper wants only the latest
    // window, and a loaded daemon at the default --window closes one
    // every 64 requests. A failed write must not cost the request that
    // closed the window: it is reported once per run of failures, and
    // `server metrics` keeps answering with metrics_.
    metrics_ = telemetry::prometheusText(w);
    std::ofstream prom(metricsPath(), std::ios::trunc);
    prom << metrics_;
    prom.close();
    if (prom.fail() && !metricsFailing_)
        warn("cannot write telemetry file '", metricsPath(),
             "'; `server metrics` still answers");
    metricsFailing_ = prom.fail();
    if (jsonl_.is_open())
        jsonl_ << telemetry::jsonLine(w);
}

std::string
Daemon::renderStatus()
{
    std::ostringstream os;
    os << "socket " << options_.socketPath << "\n"
       << "sessions active " << sessionsActive() << " opened "
       << opened_.load() << " closed " << closed_.load() << " evicted "
       << evicted_.load() << " suspended " << suspended_.load()
       << " rejected " << rejected_.load() << "\n"
       << "requests " << requests_.load() << " errors " << errors_.load()
       << "\n"
       << "refs offered " << refsOffered_.load() << " accepted "
       << refsAccepted_.load() << " backpressure "
       << backpressure_.load();
    return os.str();
}

std::string
Daemon::handleServer(Slot &slot, const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "status")
        return renderStatus();
    const std::string &sub = tokens[1];
    if (sub == "metrics") {
        std::lock_guard<std::mutex> lock(telemetryMu_);
        if (metrics_.empty())
            return "no telemetry window closed yet (" +
                   std::to_string(sampler_.windowCycles()) +
                   " requests per window)";
        return metrics_;
    }
    if (sub == "evict") {
        if (tokens.size() != 3)
            fatal("usage: server evict <session-name>");
        std::lock_guard<std::mutex> lock(slotsMu_);
        for (auto &other : slots_) {
            if (other->done.load(std::memory_order_acquire))
                continue;
            if (other->session->name() != tokens[2])
                continue;
            other->evict.store(true, std::memory_order_release);
            // Read side only: the victim's in-flight reply (and, for a
            // self-evict, THIS reply) still drains before close.
            other->channel->shutdownRead();
            const bool self = other.get() == &slot;
            return "evicting session '" + tokens[2] + "'" +
                   (self ? " (this session)" : "");
        }
        fatal("no active session named '", tokens[2], "'");
    }
    fatal("usage: server [status|metrics|evict <name>]");
}

void
Daemon::serveClient(Slot &slot)
{
    Session &session = *slot.session;
    LineChannel &channel = *slot.channel;
    session.console().registerCommand(
        "server", [this, &slot](ies::Console &, std::string_view line) {
            return handleServer(slot, ies::splitWords(line));
        });

    channel.sendReply(true, "iesserv ready session " + session.name());

    bool wasEvicted = false;

    std::string line;
    while (!slot.evict.load(std::memory_order_acquire) &&
           channel.readLine(line)) {
        if (line == "quit" || line == "bye") {
            channel.sendReply(true, "bye");
            break;
        }
        const std::string reply = session.execute(line);
        const bool ok = reply.rfind("error:", 0) != 0;
        if (!ok)
            errors_.fetch_add(1, std::memory_order_relaxed);

        const StreamIngest::Increments added =
            session.ingest().takeIncrements();
        refsOffered_.fetch_add(added.offered, std::memory_order_relaxed);
        refsAccepted_.fetch_add(added.accepted, std::memory_order_relaxed);
        backpressure_.fetch_add(added.backpressure,
                                std::memory_order_relaxed);
        tickTelemetry();

        if (!channel.sendReply(ok, reply))
            break;
        if (session.suspended()) {
            suspended_.fetch_add(1, std::memory_order_relaxed);
            break;
        }
        if (session.evictRequested()) {
            wasEvicted = true;
            break;
        }
    }
    if (slot.evict.load(std::memory_order_acquire) || wasEvicted)
        evicted_.fetch_add(1, std::memory_order_relaxed);

    channel.shutdownBoth();
    closed_.fetch_add(1, std::memory_order_relaxed);
    slot.done.store(true, std::memory_order_release);
    wakeAcceptLoop(); // prompt reap (joins the thread, frees boards)
}

} // namespace memories::service
