/**
 * @file
 * The feed wire format, pinned: the hex codec round-trips every word,
 * rejects anything but 16 lower-case digits and agrees with a plain
 * table codec on every input tried, the feed parser agrees with a
 * word-by-word one on mutated lines, and the exact bytes of a feed line
 * ServiceClient sends (first sends and re-sends) and the replies a
 * session gives to odd feed lines are fixed here, so encoder and
 * decoder cannot drift together away from docs/SERVICE.md. Also the
 * LineChannel reader's framing across reads.
 */

#include <gtest/gtest.h>

#include "servicetest.hh"

#include <array>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>

#include "common/random.hh"
#include "service/session.hh"

namespace memories::service
{
namespace
{

using namespace testing;

/** The digit-at-a-time table codec the word-at-a-time one replaced. */
namespace reference
{

constexpr char digits[] = "0123456789abcdef";

/** Nibble value of each byte; 0x10 marks a byte that is not a digit. */
constexpr std::array<std::uint8_t, 256> nibble = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(0x10);
    for (int c = '0'; c <= '9'; ++c)
        table[c] = static_cast<std::uint8_t>(c - '0');
    for (int c = 'a'; c <= 'f'; ++c)
        table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    return table;
}();

std::string
encode(std::uint64_t raw)
{
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i) {
        hex[i] = digits[raw & 0xf];
        raw >>= 4;
    }
    return hex;
}

std::optional<std::uint64_t>
decode(std::string_view token)
{
    if (token.size() != 16)
        return std::nullopt;
    std::uint64_t raw = 0;
    unsigned invalid = 0;
    for (const char c : token) {
        const std::uint8_t n = nibble[static_cast<unsigned char>(c)];
        invalid |= n;
        raw = (raw << 4) | (n & 0xf);
    }
    if (invalid & 0x10)
        return std::nullopt;
    return raw;
}

/** The word-by-word feed parser parseFeedLine replaced. */
FeedWords
parse(std::string_view line, Cycle prev, std::size_t limit,
      std::vector<bus::BusTransaction> &txns)
{
    txns.clear();
    ies::nextWord(line);
    FeedWords words;
    for (std::string_view word = ies::nextWord(line); !word.empty();
         word = ies::nextWord(line)) {
        if (++words.count > limit || !words.bad.empty())
            continue;
        const auto raw = decode(word);
        const trace::BusRecord rec(raw.value_or(0));
        if (!raw || !rec.hasKnownOp()) {
            words.bad = word;
            words.why = raw ? "its command field names no bus command"
                            : "want 16 lower-case hex digits";
            continue;
        }
        txns.push_back(rec.unpack(prev));
        prev = txns.back().cycle;
    }
    return words;
}

} // namespace reference

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

TEST(ServiceWireFormatTest, CodecMatchesTheTableCodecOnEveryByteAtEveryPlace)
{
    // One byte value at one position of a valid token: every way a
    // single character can be out of range, the NUL among them.
    for (int at = 0; at < 16; ++at) {
        for (int byte = 0; byte < 256; ++byte) {
            std::string token = "0123456789abcdef";
            token[at] = static_cast<char>(byte);
            ASSERT_EQ(decodeRecordHex(token), reference::decode(token))
                << "byte " << byte << " at " << at;
        }
    }
    // Garbage in several places at once: near-miss characters mixed
    // into digits, one draw in four.
    constexpr char nearMiss[] = "/:@`gAFG \t\0\x7f\x80\xb0\xe1\xff";
    Rng rng(31);
    for (int i = 0; i < 200'000; ++i) {
        std::string token(16, '0');
        for (char &c : token)
            c = rng.nextBounded(4) == 0
                    ? nearMiss[rng.nextBounded(sizeof nearMiss - 1)]
                    : reference::digits[rng.nextBounded(16)];
        ASSERT_EQ(decodeRecordHex(token), reference::decode(token))
            << token;
    }
    for (const std::size_t length : {0, 15, 17}) {
        const std::string token(length, '7');
        EXPECT_FALSE(decodeRecordHex(token).has_value()) << length;
    }
    EXPECT_FALSE(
        decodeRecordHex(std::string_view("01234567\089abcde", 16))
            .has_value());
}

TEST(ServiceWireFormatTest, CodecMatchesTheTableCodecOnAMillionWords)
{
    Rng rng(47);
    char out[16];
    for (int i = 0; i < 1'000'000; ++i) {
        // Half the draws keep only a few bits, so long runs of 0 and
        // f digits come up as often as mixed ones.
        std::uint64_t raw = rng.next();
        if (i & 1)
            raw = (i & 2) ? raw & (raw >> 7) : raw | (raw << 9);
        const std::string want = reference::encode(raw);
        writeRecordHex(out, raw);
        ASSERT_EQ(std::string_view(out, 16), want) << raw;
        ASSERT_EQ(decodeRecordHex(want), raw) << want;
    }
}

/** A record word: line @p line read by CPU @p cpu (command @p op), 10
 *  cycles after the record before it. */
std::string
recordWord(std::uint64_t line, unsigned cpu = 0, unsigned op = 0)
{
    return encodeRecordHex(line | std::uint64_t{op} << 48 |
                           std::uint64_t{cpu} << 52 |
                           std::uint64_t{10} << 56);
}

TEST(ServiceWireFormatTest, ParseMatchesTheWordParserOnMutatedLines)
{
    // Lines as feedAll writes them, then up to three edits each: a
    // separator or a near-miss character inserted, overwritten or
    // removed, or a command field set to 13-15. Both parsers must agree
    // on the count, the bad word (to its place in the line), the reason
    // and every record.
    const auto txns = stream(3, 4096);
    constexpr char separators[] = " \t\n\v\f\r";
    constexpr char nearMiss[] = "0129afAFgz/:@`\x80\xff\0";
    const auto pick = [](Rng &rng, const char *set, std::size_t size) {
        return set[rng.nextBounded(size - 1)];
    };
    Rng rng(5);
    std::string line;
    std::vector<bus::BusTransaction> got, want;
    for (int i = 0; i < 100'000; ++i) {
        const std::size_t n = 1 + rng.nextBounded(12);
        const std::size_t at = rng.nextBounded(txns.size() - n);
        line.clear();
        appendFeedLine(line, &txns[at], n, at ? txns[at - 1].cycle : 0);
        line.pop_back(); // the reader strips the newline
        for (auto edits = rng.nextBounded(4); edits > 0; --edits) {
            const std::size_t pos = rng.nextBounded(line.size());
            switch (rng.nextBounded(5)) {
            case 0:
                line.insert(pos, 1, pick(rng, separators, sizeof separators));
                break;
            case 1:
                line[pos] = pick(rng, separators, sizeof separators);
                break;
            case 2:
                line[pos] = pick(rng, nearMiss, sizeof nearMiss);
                break;
            case 3:
                line.erase(pos, 1);
                break;
            default: // the command digit of a word, if it is still there
                if (const std::size_t op = 8 + 17 * rng.nextBounded(n);
                    op < line.size())
                    line[op] = pick(rng, "def", 4);
            }
        }
        const std::size_t limit = 1 + rng.nextBounded(14);
        const Cycle prev = rng.nextBounded(1000);
        const FeedWords a = parseFeedLine(line, prev, limit, got);
        const FeedWords b = reference::parse(line, prev, limit, want);
        ASSERT_EQ(a.count, b.count) << line;
        ASSERT_EQ(a.bad.data(), b.bad.data()) << line;
        ASSERT_EQ(a.bad, b.bad) << line;
        ASSERT_EQ(a.why, b.why) << line;
        ASSERT_EQ(got.size(), want.size()) << line;
        for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].addr, want[k].addr) << line;
            ASSERT_EQ(got[k].cycle, want[k].cycle) << line;
            ASSERT_EQ(got[k].op, want[k].op) << line;
            ASSERT_EQ(got[k].cpu, want[k].cpu) << line;
        }
    }
}

TEST(ServiceWireFormatTest, OddFeedLinesGetTheRepliesTheWordParserGave)
{
    // Lines the in-place path must hand to the word path (or take
    // itself, where the shape allows), run in order on one session with
    // a batch limit of 4. Each reply is the one the word-by-word parser
    // that came before the in-place path gave, byte for byte.
    const std::string a = recordWord(0x200), b = recordWord(0x201, 1),
                      c = recordWord(0x202, 2), d = recordWord(0xabcdef, 3);
    std::string upper = d;
    upper[upper.find('a')] = 'A';
    std::string tabbed = a;
    tabbed[8] = '\t'; // 16 characters, one of them a tab
    const std::string badDigits = "' (want 16 lower-case hex digits)";
    const std::string badOp = "' (its command field names no bus command)";
    const std::pair<std::string, std::string> cases[] = {
        {"feed " + a + " " + b, "fed 2 accepted 2 of 2"},
        {"feed\t" + a + "\t" + b, "fed 2 accepted 2 of 2"},
        {"feed " + a + "\r" + b + "\r", "fed 2 accepted 2 of 2"},
        {"feed\v" + a + "\f" + b, "fed 2 accepted 2 of 2"},
        {"feed " + a + "\n" + b, "fed 2 accepted 2 of 2"},
        {"feed   " + a + "  " + b + "   " + c, "fed 3 accepted 3 of 3"},
        {"  \tfeed " + a + " " + b + " \t", "fed 2 accepted 2 of 2"},
        {"feed " + a + " " + b + " ", "fed 2 accepted 2 of 2"},
        {"feed " + tabbed + " " + b,
         "error: bad record token '0a000000" + badDigits},
        {"feed " + a + " " + tabbed,
         "error: bad record token '0a000000" + badDigits},
        {"feed " + a.substr(0, 15) + " " + b,
         "error: bad record token '0a0000000000020" + badDigits},
        {"feed " + a + " " + b.substr(0, 15),
         "error: bad record token '0a1000000000020" + badDigits},
        {"feed " + a + "0 " + b,
         "error: bad record token '0a000000000002000" + badDigits},
        {"feed " + a + " " + b + "0",
         "error: bad record token '0a100000000002010" + badDigits},
        {"feed " + a + " " + upper,
         "error: bad record token '0A30000000abcdef" + badDigits},
        {"feed " + recordWord(0x200, 0, 13) + " " + a,
         "error: bad record token '0a0d000000000200" + badOp},
        {"feed " + a + " " + recordWord(0x201, 0, 14) + " " + b,
         "error: bad record token '0a0e000000000201" + badOp},
        {"feed " + a + " " + b + " " + recordWord(0x202, 0, 15),
         "error: bad record token '0a0f000000000202" + badOp},
        // Over the limit and holding a bad word: the limit is named.
        {"feed " + a + " zzzz " + b + " " + c + " " + d,
         "error: feed of 5 records exceeds the session batch limit 4"},
        {"feed " + a + " " + b + " " + c + " " + d + " " +
             recordWord(0x200, 0, 13),
         "error: feed of 5 records exceeds the session batch limit 4"},
        {"feed " + a + " " + b + " " + c + " " + recordWord(0x203, 0, 13),
         "error: bad record token '0a0d000000000203" + badOp},
        {"feed " + a + " " + b + " " + c + " " + d, "fed 4 accepted 4 of 4"},
        {"feed", "error: usage: feed <hex16> [<hex16> ...]"},
        {"feed \t ", "error: usage: feed <hex16> [<hex16> ...]"},
        {"stream status",
         "pace on\nprev-cycle 210\noffered 21 attempted 21 accepted 21\n"
         "backpressure 0 overflow-drops 0 feed-lines 9 resyncs 0"},
    };

    SessionOptions options;
    options.stateDir = uniquePath("iesserv-wire-state");
    options.maxBatch = 4;
    Session session(options, "w0");
    for (const auto &line : configScript())
        ASSERT_EQ(session.execute(line).rfind("error:", 0),
                  std::string::npos)
            << line;
    for (const auto &[line, reply] : cases)
        EXPECT_EQ(session.execute(line), reply) << line;
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
    std::vector<bus::BusTransaction> parsed;
    const FeedWords words = parseFeedLine(pinned, 0, 4096, parsed);
    EXPECT_EQ(words.count, records.size());
    EXPECT_TRUE(words.bad.empty());
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(parsed[i].addr, records[i].addr);
        EXPECT_EQ(parsed[i].cycle, records[i].cycle);
        EXPECT_EQ(parsed[i].op, records[i].op);
        EXPECT_EQ(parsed[i].cpu, records[i].cpu);
    }

    // A back-pressured stream: 3-record lines, each answered `fed 2`.
    // The re-sent line starts at record 2, whose delta still comes from
    // record 1, so it is "feed" plus the same slice of the bytes above.
    RecordingDaemon refusing("fed 2 accepted 2 of 3");
    {
        ServiceClient client;
        ASSERT_TRUE(client.connect(refusing.path()));
        const FeedTotals totals = client.feedAll(records, 3);
        EXPECT_EQ(totals.accepted, 4u);
        EXPECT_EQ(totals.feedLines, 2u);
    }
    EXPECT_EQ(refusing.finish(),
              (std::vector<std::string>{
                  "feed 0000000000000001 0532000000000020 c8f4000001579bdf",
                  "feed c8f4000001579bdf 01780001ffffffff", "quit"}));
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
