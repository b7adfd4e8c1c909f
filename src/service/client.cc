#include "service/client.hh"

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace memories::service
{

ServiceClient::~ServiceClient()
{
    close();
}

bool
ServiceClient::connect(const std::string &socket_path, int retry_ms)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof addr.sun_path)
        return false;
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);

    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(retry_ms);
    for (;;) {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return false;
        if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof addr) == 0) {
            channel_ = std::make_unique<LineChannel>(fd);
            break;
        }
        ::close(fd);
        if (std::chrono::steady_clock::now() >= deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto greeting = channel_->readReply();
    if (!greeting || !greeting->ok) {
        channel_.reset();
        return false;
    }
    greeting_ = greeting->text();
    prevCycle_ = 0;
    return true;
}

Reply
ServiceClient::exec(const std::string &line)
{
    return request(line + "\n");
}

Reply
ServiceClient::request(std::string_view framed)
{
    Reply failed;
    failed.ok = false;
    if (!channel_) {
        failed.lines = {"transport: not connected"};
        return failed;
    }
    if (!channel_->writeAll(framed)) {
        channel_.reset();
        failed.lines = {"transport: connection lost (write)"};
        return failed;
    }
    auto reply = channel_->readReply();
    if (!reply) {
        channel_.reset();
        failed.lines = {"transport: connection lost (read)"};
        return failed;
    }
    return *reply;
}

FeedTotals
ServiceClient::feedAll(const std::vector<bus::BusTransaction> &txns,
                       std::size_t batch,
                       std::vector<double> *latencies_us)
{
    FeedTotals totals;
    totals.offered = txns.size();
    if (batch == 0)
        batch = 1;

    // Each line is encoded as it is sent, into one reused buffer. A
    // record's cycle delta comes from the record before it, whichever
    // line carried that one, so a back-pressured tail is re-sent with
    // the bytes it would have had in any other windowing.
    std::string line;
    std::size_t next = 0;
    while (next < txns.size() && channel_) {
        const std::size_t n = std::min(batch, txns.size() - next);
        line.clear();
        appendFeedLine(line, txns.data() + next, n,
                       next > 0 ? txns[next - 1].cycle : prevCycle_);
        const auto sent = std::chrono::steady_clock::now();
        const Reply reply = request(line);
        if (latencies_us)
            latencies_us->push_back(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - sent)
                    .count());
        ++totals.feedLines;
        if (!reply.ok || reply.lines.empty())
            break;
        unsigned long long fed = 0, accepted = 0, of = 0;
        if (std::sscanf(reply.lines[0].c_str(),
                        "fed %llu accepted %llu of %llu", &fed,
                        &accepted, &of) != 3 ||
            fed > n)
            break;
        totals.accepted += accepted;
        if (fed == 0) {
            // The head record does not fit at its own cycle, and only
            // this client feeds the session: a re-send would meet the
            // same board and be refused again.
            ++totals.resends;
            break;
        }
        next += fed;
    }
    if (next > 0)
        prevCycle_ = txns[next - 1].cycle;
    return totals;
}

void
ServiceClient::close()
{
    if (!channel_)
        return;
    channel_->writeAll("quit\n"); // best-effort goodbye
    channel_.reset();
}

void
ServiceClient::drop()
{
    channel_.reset();
}

} // namespace memories::service
