/**
 * @file
 * IESSERV client: connect, speak the console grammar, stream records.
 *
 * ServiceClient wraps one AF_UNIX connection to an iesserv daemon. Its
 * feedAll() loop is the reference implementation of the credit-paced
 * upload protocol: offer a batch, read `fed A accepted B of N`, and
 * carry on from the first record the daemon did not admit (paced
 * sessions are back-pressured, never dropped). The load-test harness
 * and the lifecycle tests both drive the daemon through this class so
 * the protocol has exactly one client-side implementation to keep
 * honest.
 */

#ifndef MEMORIES_SERVICE_CLIENT_HH
#define MEMORIES_SERVICE_CLIENT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "service/wire.hh"

namespace memories::service
{

/** Result of one streamed upload (feedAll). */
struct FeedTotals
{
    std::uint64_t offered = 0;  //!< records handed to feedAll
    std::uint64_t accepted = 0; //!< records the board accepted
    /**
     * Feed lines the daemon admitted no record of (`fed 0`): 0 or 1,
     * since feedAll stops at the first. A partly admitted line's tail
     * is re-sent as the next line's head but not counted here;
     * `stream status` offered ÷ attempted is the re-send ratio over
     * all records (docs/SERVICE.md).
     */
    std::uint64_t resends = 0;
    std::uint64_t feedLines = 0; //!< feed requests sent
};

/** One connection to an iesserv daemon. */
class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect to the daemon at @p socket_path, retrying for up to
     * @p retry_ms while the socket does not exist or refuses (daemon
     * still starting). Consumes the greeting frame.
     * @return false when no connection could be made.
     */
    bool connect(const std::string &socket_path, int retry_ms = 2000);

    bool connected() const { return channel_ != nullptr; }

    /** The daemon's greeting line ("iesserv ready session <name>"). */
    const std::string &greeting() const { return greeting_; }

    /**
     * Send one command line and read the framed reply. A transport
     * failure (daemon gone) closes the connection and returns an
     * !ok reply with a "transport:" diagnostic.
     */
    Reply exec(const std::string &line);

    /**
     * Stream @p txns as packed records in feed lines of at most
     * @p batch records, each line starting at the first record the
     * previous one did not admit. Returns (with what happened so far)
     * at the first `fed 0` reply — the head record does not fit at its
     * own cycle, and a re-send would meet the same board — or when the
     * transport dies or a reply is malformed. A stream that fits in
     * batch mode is admitted whole.
     *
     * When @p latencies_us is non-null, the round-trip time of every
     * feed request is appended in microseconds (the load harness
     * computes its p50/p99 ingest latency from these).
     */
    FeedTotals feedAll(const std::vector<bus::BusTransaction> &txns,
                       std::size_t batch = 256,
                       std::vector<double> *latencies_us = nullptr);

    /** Close the connection (also sent a best-effort `quit`). */
    void close();

    /** Drop the connection abruptly: no `quit`, just close the fd. */
    void drop();

    /**
     * Set the pack-side cycle chain base. After `session resume`, the
     * daemon's chain sits at the checkpointed stream's last cycle; a
     * fresh client must match it before feeding the remainder.
     */
    void setChainCycle(Cycle cycle) { prevCycle_ = cycle; }

  private:
    /** exec() for a request that already carries its "\n". */
    Reply request(std::string_view framed);

    std::unique_ptr<LineChannel> channel_;
    std::string greeting_;
    Cycle prevCycle_ = 0; //!< pack-side mirror of the session chain
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_CLIENT_HH
