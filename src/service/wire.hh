/**
 * @file
 * IESSERV wire protocol: the console grammar over a byte stream.
 *
 * The daemon does not invent a new RPC surface — a request is exactly
 * one console command line (src/ies/console.hh), so anything typeable
 * at the interactive console is speakable on the wire, including the
 * command families layered in through Console::registerCommand. Only
 * the *reply* needs framing, because console replies span multiple
 * lines:
 *
 *   request  := <command line> "\n"
 *   reply    := ("ok" | "err") " " <n> "\n" <n> reply lines
 *
 * An `err` frame carries the console's "error: ..." diagnostic text;
 * the connection stays usable afterwards except where the session
 * layer decides to evict (docs/SERVICE.md).
 *
 * Bulk ingest rides the same grammar: `feed` takes packed BusRecords
 * (trace/record.hh) as 16-digit lower-case hex words, one token per
 * reference, cycle-delta chained per session exactly like a trace
 * file. appendFeedLine writes such a line and parseFeedLine reads one
 * back; the client, the session and the bench call these two. The hex
 * codec under them converts a record eight bytes at a time.
 * LineChannel is the shared buffered line reader/writer over a
 * connected socket fd used by both daemon and client.
 */

#ifndef MEMORIES_SERVICE_WIRE_HH
#define MEMORIES_SERVICE_WIRE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bus/transaction.hh"
#include "common/types.hh"

namespace memories::service
{

/** Longest accepted request/reply line, in bytes (fuzz-tier bound). */
inline constexpr std::size_t maxLineBytes = std::size_t{1} << 20;

/** One parsed reply frame. */
struct Reply
{
    bool ok = false;
    std::vector<std::string> lines;

    /** The reply lines re-joined with '\n' (no trailing newline). */
    std::string text() const;
};

/** Render a reply frame ("ok <n>\n" + lines, each '\n'-terminated). */
std::string renderReply(bool ok, const std::string &body);

/** Write @p raw as 16 lower-case hex digits at @p out (no NUL). */
void writeRecordHex(char *out, std::uint64_t raw);

/** Pack a raw BusRecord word as 16 lower-case hex digits. */
std::string encodeRecordHex(std::uint64_t raw);

/**
 * Parse a 16-digit lower-case hex record token; nullopt on any
 * malformed input (wrong length, upper case, non-hex digit) — the fuzz
 * tier feeds this garbage.
 */
std::optional<std::uint64_t> decodeRecordHex(std::string_view token);

/**
 * Append the feed request for the @p count records at @p txns to
 * @p line: "feed", then " <hex16>" per record, then "\n". Each record's
 * cycle delta is taken from the record before it, the first one's from
 * @p prev, so a stream cut into lines anywhere sends the same bytes.
 */
void appendFeedLine(std::string &line, const bus::BusTransaction *txns,
                    std::size_t count, Cycle prev);

/** What parseFeedLine found on a feed line. */
struct FeedWords
{
    /** Every word after the family name, counted past the limit too. */
    std::size_t count = 0;
    /** The first malformed word within the limit (a view into the
     *  parsed line); empty when none. */
    std::string_view bad;
    /** Why bad is malformed. */
    std::string_view why;
};

/**
 * Parse a feed line in place. Its first word is the family name; each
 * later word is decoded and unpacked on the cycle chain from @p prev
 * into @p txns (cleared first), up to @p limit words or the first
 * malformed one, and the rest are only counted. A canonical word (one
 * space, 16 digits, then whitespace or the line's end) is decoded where
 * it lies; any other shape goes through ies::nextWord, with the same
 * result.
 */
FeedWords parseFeedLine(std::string_view line, Cycle prev,
                        std::size_t limit,
                        std::vector<bus::BusTransaction> &txns);

/**
 * Buffered line I/O over a connected stream socket. Reads are
 * newline-delimited with a hard maxLineBytes bound; writes always
 * push the full buffer. All methods return false on EOF/error and
 * never throw — peers vanishing mid-line is normal daemon weather.
 */
class LineChannel
{
  public:
    /** Wrap a connected fd; the channel owns and closes it. */
    explicit LineChannel(int fd) : fd_(fd) {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Read one '\n'-terminated line (newline stripped) into @p line.
     * Each buffered byte is scanned for the newline once, so the cost
     * of a line is linear in its length, up to the maxLineBytes bound.
     * @return false on EOF, error, or an over-long line.
     */
    bool readLine(std::string &line);

    /** Write all of @p data. @return false when the peer is gone. */
    bool writeAll(std::string_view data);

    /** Send a framed reply. */
    bool sendReply(bool ok, const std::string &body)
    {
        return writeAll(renderReply(ok, body));
    }

    /**
     * Read a framed reply. @return nullopt on EOF/garbage framing.
     */
    std::optional<Reply> readReply();

    int fd() const { return fd_; }

    /** shutdown(2) both directions — unblocks a reader on another
     *  thread without racing the close. */
    void shutdownBoth();

    /** shutdown(2) the read side only: the peer's next request gets
     *  EOF but a reply already in flight still drains (eviction). */
    void shutdownRead();

  private:
    int fd_;
    /** Received bytes; those before head_ are already consumed. */
    std::string buf_;
    std::size_t head_ = 0;
    /** Bytes from head_ on already searched for '\n' and found none. */
    std::size_t scanned_ = 0;
};

} // namespace memories::service

#endif // MEMORIES_SERVICE_WIRE_HH
