/**
 * @file
 * Shared fixtures for the IESSERV test tier: a daemon on a unique
 * /tmp socket, the canonical wire stream (pack/unpack round trip),
 * and the golden-run signature a session-fed board must match
 * byte-for-byte (counters text, stats text, checkpoint bytes).
 */

#ifndef MEMORIES_TESTS_SERVICE_SERVICETEST_HH
#define MEMORIES_TESTS_SERVICE_SERVICETEST_HH

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bus/bus6xx.hh"
#include "bus/transaction.hh"
#include "ies/console.hh"
#include "oracle/stimulus.hh"
#include "service/client.hh"
#include "service/daemon.hh"
#include "trace/record.hh"

namespace memories::service::testing
{

/** A /tmp path unique to this process and call (thread-safe). */
inline std::string
uniquePath(const std::string &stem)
{
    static std::atomic<int> counter{0};
    return "/tmp/" + stem + "-" + std::to_string(::getpid()) + "-" +
           std::to_string(++counter);
}

/** The board configuration every service test speaks over the wire. */
inline std::vector<std::string>
configScript()
{
    return {
        "node 0 cache 2MB 4 128B LRU",
        "node 0 cpus 0,1,2,3",
        "node 1 cache 2MB 4 128B LRU",
        "node 1 cpus 4,5,6,7",
        "buffer 64",
        "throughput 42",
        "init",
    };
}

/** Seeded stimulus stream (128B-aligned addrs, nondecreasing cycles). */
inline std::vector<bus::BusTransaction>
stream(std::uint64_t seed, std::size_t count, unsigned cpus = 8)
{
    oracle::StimulusParams p;
    p.seed = seed;
    p.count = count;
    p.cpus = cpus;
    return oracle::StimulusGen(p).generate();
}

/**
 * The canonical stream: what a board actually sees after the wire
 * pack/unpack round trip (traceIds dropped, cycles rebuilt from the
 * delta chain). Stimulus streams survive this losslessly except for
 * traceId, but the golden run must feed EXACTLY the bytes the session
 * feeds, so both sides go through the same canonicalization.
 */
inline std::vector<bus::BusTransaction>
canonical(const std::vector<bus::BusTransaction> &txns, Cycle base = 0)
{
    std::vector<bus::BusTransaction> out;
    out.reserve(txns.size());
    Cycle prev = base;
    for (const auto &txn : txns) {
        const auto rec = trace::BusRecord::pack(txn, prev);
        prev = txn.cycle;
        out.push_back(rec.unpack(out.empty() ? base
                                             : out.back().cycle));
    }
    return out;
}

/**
 * Strip one trailing newline: the wire frame is line-based, so a
 * console reply's terminating '\n' is framing, not content.
 */
inline std::string
chomp(std::string text)
{
    if (!text.empty() && text.back() == '\n')
        text.pop_back();
    return text;
}

inline std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/**
 * Byte-level witness of a board's post-run state: the console's
 * `counters` and `stats` text plus the IESCKPT container bytes
 * (counters, directories, buffer, health — see docs/FORMATS.md).
 * Two boards with equal signatures went through identical histories.
 */
struct RunSignature
{
    std::string counters;
    std::string stats;
    std::string ckptBytes;

    void expectEqual(const RunSignature &other,
                     const std::string &what) const
    {
        EXPECT_EQ(counters, other.counters) << what << ": counters";
        EXPECT_EQ(stats, other.stats) << what << ": stats";
        EXPECT_EQ(ckptBytes == other.ckptBytes, true)
            << what << ": checkpoint bytes differ";
    }
};

/**
 * Golden run: the in-process batch path. Configure a console with the
 * same script a session sends, feedBatch the canonical stream in one
 * call, drain, and capture the signature.
 */
inline RunSignature
goldenRun(const std::vector<std::string> &script,
          const std::vector<bus::BusTransaction> &canon)
{
    bus::Bus6xx bus;
    ies::Console console(bus);
    for (const auto &line : script) {
        const auto reply = console.execute(line);
        EXPECT_EQ(reply.rfind("error:", 0), std::string::npos)
            << "golden config failed: " << line << " -> " << reply;
    }
    console.board()->feedBatch(canon);
    console.board()->drainAll();

    RunSignature sig;
    sig.counters = chomp(console.execute("counters"));
    sig.stats = chomp(console.execute("stats"));
    const auto path = uniquePath("iesserv-golden") + ".ckpt";
    console.execute("save-state " + path);
    sig.ckptBytes = readFileBytes(path);
    std::remove(path.c_str());
    EXPECT_FALSE(sig.ckptBytes.empty()) << "golden checkpoint missing";
    return sig;
}

/** The same signature, taken over the wire from a live session. */
inline RunSignature
sessionSignature(ServiceClient &client)
{
    RunSignature sig;
    sig.counters = chomp(client.exec("counters").text());
    sig.stats = chomp(client.exec("stats").text());
    const auto path = uniquePath("iesserv-session") + ".ckpt";
    const auto saved = client.exec("save-state " + path);
    EXPECT_TRUE(saved.ok) << saved.text();
    sig.ckptBytes = readFileBytes(path);
    std::remove(path.c_str());
    EXPECT_FALSE(sig.ckptBytes.empty()) << "session checkpoint missing";
    return sig;
}

/** Send a config script over the wire, asserting every line is ok. */
inline void
configureSession(ServiceClient &client,
                 const std::vector<std::string> &script)
{
    for (const auto &line : script) {
        const auto reply = client.exec(line);
        ASSERT_TRUE(reply.ok)
            << "config line rejected: " << line << " -> "
            << reply.text();
    }
}

/** Poll @p pred every 5ms until true or @p timeout_ms elapses. */
template <typename Pred>
inline bool
waitFor(Pred pred, int timeout_ms = 5000)
{
    for (int waited = 0; waited < timeout_ms; waited += 5) {
        if (pred())
            return true;
        ::usleep(5000);
    }
    return pred();
}

/**
 * A daemon on a unique socket, started in the ctor; the dtor stops it
 * and removes its state directory.
 */
struct TestDaemon
{
    DaemonOptions options;
    std::unique_ptr<Daemon> daemon;

    explicit TestDaemon(std::size_t max_sessions = 16,
                        std::size_t window_requests = 8)
    {
        options.socketPath = uniquePath("iesserv-test") + ".sock";
        options.stateDir = uniquePath("iesserv-state");
        options.maxSessions = max_sessions;
        options.windowRequests = window_requests;
        daemon = std::make_unique<Daemon>(options);
        daemon->start();
    }

    ~TestDaemon()
    {
        daemon->stop();
        std::error_code ignored;
        std::filesystem::remove_all(options.stateDir, ignored);
    }

    Daemon &get() { return *daemon; }
    const std::string &socket() const { return options.socketPath; }
};

} // namespace memories::service::testing

#endif // MEMORIES_TESTS_SERVICE_SERVICETEST_HH
