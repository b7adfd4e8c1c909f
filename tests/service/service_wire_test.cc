/**
 * @file
 * The feed wire format, pinned: the hex codec round-trips every word
 * and rejects anything but 16 lower-case digits, and the exact bytes
 * of a feed line ServiceClient sends are fixed here, so encoder and
 * decoder cannot drift together away from docs/SERVICE.md. Also the
 * LineChannel reader's framing across reads.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>

#include "common/random.hh"

namespace memories::service
{
namespace
{

using namespace testing;

TEST(ServiceWireFormatTest, HexCodecRoundTripsEveryWord)
{
    std::vector<std::uint64_t> words = {0, ~std::uint64_t{0}};
    Rng rng(12);
    for (int i = 0; i < 10'000; ++i)
        words.push_back(rng.next());
    for (const std::uint64_t raw : words) {
        const std::string hex = encodeRecordHex(raw);
        ASSERT_EQ(hex.size(), 16u);
        ASSERT_EQ(decodeRecordHex(hex), raw) << hex;
    }
    EXPECT_EQ(encodeRecordHex(0), "0000000000000000");
    EXPECT_EQ(encodeRecordHex(~std::uint64_t{0}), "ffffffffffffffff");
    EXPECT_EQ(encodeRecordHex(0x0123456789abcdefull), "0123456789abcdef");
}

TEST(ServiceWireFormatTest, OnlySixteenLowerCaseHexDigitsDecode)
{
    for (const char *bad : {"", "0123456789ABCDEF", "0123456789abcdeF",
                            "0123456789abcde", "0123456789abcdef0",
                            "0123456789abcdeg", " 123456789abcdef",
                            "0123456789abcde\n", "0x23456789abcdef"})
        EXPECT_FALSE(decodeRecordHex(bad).has_value()) << "'" << bad << "'";
    EXPECT_FALSE(decodeRecordHex(std::string_view("0123456789abcde\0", 16))
                     .has_value());
}

/**
 * A stand-in daemon for one connection: greets, answers every request
 * with @p reply, and keeps each request line it received until the
 * client says `quit` or hangs up.
 */
class RecordingDaemon
{
  public:
    explicit RecordingDaemon(std::string reply)
        : path_(uniquePath("iesserv-wire") + ".sock"),
          listener_(::socket(AF_UNIX, SOCK_STREAM, 0))
    {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
        if (listener_ < 0 ||
            ::bind(listener_, reinterpret_cast<const sockaddr *>(&addr),
                   sizeof addr) != 0 ||
            ::listen(listener_, 1) != 0)
            return;
        thread_ = std::thread([this, reply = std::move(reply)] {
            LineChannel channel(::accept(listener_, nullptr, nullptr));
            channel.sendReply(true, "iesserv ready session s0");
            std::string line;
            while (channel.readLine(line)) {
                requests_.push_back(line);
                if (line == "quit" || !channel.sendReply(true, reply))
                    break;
            }
        });
    }

    ~RecordingDaemon()
    {
        finish();
        if (listener_ >= 0)
            ::close(listener_);
        ::unlink(path_.c_str());
    }

    RecordingDaemon(const RecordingDaemon &) = delete;
    RecordingDaemon &operator=(const RecordingDaemon &) = delete;

    const std::string &path() const { return path_; }

    /** Wait for the session to end; the request lines it received. */
    const std::vector<std::string> &finish()
    {
        if (thread_.joinable()) {
            ::shutdown(listener_, SHUT_RDWR); // wakes accept() if idle
            thread_.join();
        }
        return requests_;
    }

  private:
    std::string path_;
    int listener_;
    std::vector<std::string> requests_;
    std::thread thread_;
};

bus::BusTransaction
txn(Addr addr, Cycle cycle, bus::BusOp op, CpuId cpu)
{
    bus::BusTransaction t;
    t.addr = addr;
    t.cycle = cycle;
    t.op = op;
    t.cpu = cpu;
    return t;
}

TEST(ServiceWireFormatTest, ClientFeedLineBytesArePinned)
{
    // Address >> 7 in bits 0..47, op in 48..51, cpu in 52..55, cycle
    // delta in 56..63 (trace/record.hh), as 16 lower-case hex digits.
    const std::vector<bus::BusTransaction> records = {
        txn(0x80, 0, bus::BusOp::Read, 0),
        txn(0x1000, 5, bus::BusOp::Rwitm, 3),
        txn(0xabcdef80, 205, bus::BusOp::WriteBack, 15),
        txn(0xffffffff80, 206, bus::BusOp::Kill, 7),
    };
    const std::string pinned = "feed 0000000000000001 0532000000000020 "
                               "c8f4000001579bdf 01780001ffffffff";

    RecordingDaemon daemon("fed 4 accepted 4 of 4");
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(daemon.path()));
        const FeedTotals totals = client.feedAll(records);
        EXPECT_EQ(totals.accepted, 4u);
        EXPECT_EQ(totals.feedLines, 1u);
    }
    const std::vector<std::string> requests = daemon.finish();
    ASSERT_EQ(requests.size(), 2u);
    EXPECT_EQ(requests[0], pinned);
    EXPECT_EQ(requests[1], "quit");

    // ...and the same bytes decode back to the records.
    std::string_view rest = pinned;
    EXPECT_EQ(ies::nextWord(rest), "feed");
    Cycle prev = 0;
    for (const bus::BusTransaction &want : records) {
        const auto raw = decodeRecordHex(ies::nextWord(rest));
        ASSERT_TRUE(raw.has_value());
        const bus::BusTransaction got = trace::BusRecord(*raw).unpack(prev);
        EXPECT_EQ(got.addr, want.addr);
        EXPECT_EQ(got.cycle, want.cycle);
        EXPECT_EQ(got.op, want.op);
        EXPECT_EQ(got.cpu, want.cpu);
        prev = got.cycle;
    }
    EXPECT_TRUE(ies::nextWord(rest).empty());
}

TEST(ServiceWireFormatTest, LinesSplitAcrossAndWithinReadsArriveIntact)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel reader(fds[0]);
    // Several lines in one read, then one longer than a read chunk.
    const std::string longLine(100'000, 'x');
    std::thread writer([fd = fds[1], &longLine] {
        LineChannel channel(fd);
        channel.writeAll("one\n\ntwo\n" + longLine + "\nlast\n");
        channel.shutdownBoth();
    });

    std::vector<std::string> lines;
    for (std::string line; reader.readLine(line);)
        lines.push_back(line);
    writer.join();
    EXPECT_EQ(lines, (std::vector<std::string>{"one", "", "two", longLine,
                                               "last"}));
}

} // namespace
} // namespace memories::service
