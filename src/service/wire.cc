#include "service/wire.hh"

#include <bit>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/units.hh"
#include "ies/console.hh"
#include "trace/record.hh"

namespace memories::service
{

std::string
Reply::text() const
{
    std::string out;
    for (std::size_t i = 0; i < lines.size(); ++i) {
        if (i)
            out += '\n';
        out += lines[i];
    }
    return out;
}

std::string
renderReply(bool ok, const std::string &body)
{
    // Count body lines; an empty body is a zero-line frame.
    std::size_t n = 0;
    if (!body.empty()) {
        n = 1;
        for (char c : body)
            n += c == '\n';
        if (body.back() == '\n')
            --n; // trailing newline does not open a new line
    }
    std::string out = ok ? "ok " : "err ";
    out += std::to_string(n);
    out += '\n';
    out += body;
    if (!body.empty() && body.back() != '\n')
        out += '\n';
    return out;
}

namespace
{

/** @p b in every byte of a word. */
constexpr std::uint64_t
inEveryByte(std::uint8_t b)
{
    return 0x0101010101010101ull * b;
}

/** The 8 bytes at @p p as one word, p[0] its most significant byte. */
std::uint64_t
loadBigEndian(const char *p)
{
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    if constexpr (std::endian::native == std::endian::little)
        w = __builtin_bswap64(w);
    return w;
}

/** Store @p w at @p p, its most significant byte first. */
void
storeBigEndian(char *p, std::uint64_t w)
{
    if constexpr (std::endian::native == std::endian::little)
        w = __builtin_bswap64(w);
    std::memcpy(p, &w, sizeof w);
}

/** The 8 hex digits of @p x, one per byte, the first in the top byte. */
std::uint64_t
hexDigits(std::uint32_t x)
{
    // Spread the nibbles: 16-bit halves into 32-bit lanes, bytes into
    // 16-bit lanes, nibbles into bytes.
    std::uint64_t v = x;
    v = (v | (v << 16)) & 0x0000ffff0000ffffull;
    v = (v | (v << 8)) & 0x00ff00ff00ff00ffull;
    v = (v | (v << 4)) & 0x0f0f0f0f0f0f0f0full;
    // nibble + 6 sets bit 4 exactly when the nibble is 10-15, a letter.
    const std::uint64_t letters = ((v + inEveryByte(6)) >> 4) & inEveryByte(1);
    return v + inEveryByte('0') + letters * ('a' - '0' - 10);
}

/**
 * True when every byte of @p w is '0'-'9' or 'a'-'f'. Once bytes of
 * 0x80 and up are out, adding a bias below 0x80 to a byte never carries
 * into the next one, so each sum's bit 7 answers one comparison.
 */
bool
allHexDigits(std::uint64_t w)
{
    const std::uint64_t top = inEveryByte(0x80);
    if (w & top)
        return false;
    const std::uint64_t digit =
        (w + inEveryByte(0x80 - '0')) & ~(w + inEveryByte(0x7f - '9'));
    const std::uint64_t letter =
        (w + inEveryByte(0x80 - 'a')) & ~(w + inEveryByte(0x7f - 'f'));
    return ((digit | letter) & top) == top;
}

/** The value of the 8 hex digits in @p w, the first in its top byte. */
std::uint32_t
hexValue(std::uint64_t w)
{
    // A digit's value is its low nibble, plus 9 for a letter (bit 6).
    std::uint64_t v =
        (w & inEveryByte(0x0f)) + ((w >> 6) & inEveryByte(1)) * 9;
    // Fold pairs: nibbles into bytes, bytes into 16 bits, into 32.
    v = (v | (v >> 4)) & 0x00ff00ff00ff00ffull;
    v = (v | (v >> 8)) & 0x0000ffff0000ffffull;
    return static_cast<std::uint32_t>(v | (v >> 16));
}

/** Length of one canonical record word: a space and 16 digits. */
constexpr std::size_t recordWordBytes = 17;

} // namespace

void
writeRecordHex(char *out, std::uint64_t raw)
{
    storeBigEndian(out, hexDigits(static_cast<std::uint32_t>(raw >> 32)));
    storeBigEndian(out + 8, hexDigits(static_cast<std::uint32_t>(raw)));
}

std::string
encodeRecordHex(std::uint64_t raw)
{
    std::string hex(16, '\0');
    writeRecordHex(hex.data(), raw);
    return hex;
}

std::optional<std::uint64_t>
decodeRecordHex(std::string_view token)
{
    if (token.size() != 16)
        return std::nullopt;
    const std::uint64_t high = loadBigEndian(token.data());
    const std::uint64_t low = loadBigEndian(token.data() + 8);
    if (!allHexDigits(high) || !allHexDigits(low))
        return std::nullopt;
    return std::uint64_t{hexValue(high)} << 32 | hexValue(low);
}

void
appendFeedLine(std::string &line, const bus::BusTransaction *txns,
               std::size_t count, Cycle prev)
{
    const std::size_t at = line.size();
    line.resize(at + 4 + count * recordWordBytes + 1);
    char *out = line.data() + at;
    std::memcpy(out, "feed", 4);
    out += 4;
    for (std::size_t i = 0; i < count; ++i) {
        *out = ' ';
        writeRecordHex(out + 1, trace::BusRecord::pack(txns[i], prev).raw);
        out += recordWordBytes;
        prev = txns[i].cycle;
    }
    *out = '\n';
}

FeedWords
parseFeedLine(std::string_view line, Cycle prev, std::size_t limit,
              std::vector<bus::BusTransaction> &txns)
{
    txns.clear();
    ies::nextWord(line); // the family name
    FeedWords words;
    // Unpack @p word onto the chain; why it is malformed, or empty.
    const auto take = [&](std::string_view word) -> std::string_view {
        const auto raw = decodeRecordHex(word);
        if (!raw)
            return "want 16 lower-case hex digits";
        const trace::BusRecord rec(*raw);
        if (!rec.hasKnownOp())
            return "its command field names no bus command";
        txns.push_back(rec.unpack(prev));
        prev = txns.back().cycle;
        return {};
    };
    for (;;) {
        // The shape feedAll writes, taken where it lies. A word it does
        // not take is read again below from the same place, so the
        // reply cannot depend on which path read it.
        if (words.count < limit && words.bad.empty() &&
            line.size() >= recordWordBytes && line[0] == ' ' &&
            (line.size() == recordWordBytes ||
             ies::isSpace(line[recordWordBytes])) &&
            take(line.substr(1, 16)).empty()) {
            ++words.count;
            line.remove_prefix(recordWordBytes);
            continue;
        }
        const std::string_view word = ies::nextWord(line);
        if (word.empty())
            break;
        if (++words.count > limit || !words.bad.empty())
            continue;
        words.why = take(word);
        if (!words.why.empty())
            words.bad = word;
    }
    return words;
}

LineChannel::~LineChannel()
{
    if (fd_ >= 0)
        ::close(fd_);
}

bool
LineChannel::readLine(std::string &line)
{
    for (;;) {
        const std::size_t nl = buf_.find('\n', head_ + scanned_);
        if (nl != std::string::npos) {
            line.assign(buf_, head_, nl - head_);
            head_ = nl + 1;
            scanned_ = 0;
            return true;
        }
        scanned_ = buf_.size() - head_;
        if (scanned_ > maxLineBytes)
            return false; // unterminated monster line
        // Drop the consumed lines before growing: only the unterminated
        // tail moves, once per read.
        buf_.erase(0, head_);
        head_ = 0;
        char chunk[64 * 1024];
        ssize_t got;
        do {
            got = ::read(fd_, chunk, sizeof chunk);
        } while (got < 0 && errno == EINTR);
        if (got <= 0)
            return false;
        buf_.append(chunk, static_cast<std::size_t>(got));
    }
}

bool
LineChannel::writeAll(std::string_view data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t put;
        do {
            // MSG_NOSIGNAL: a vanished peer must surface as EPIPE,
            // not kill the daemon with SIGPIPE.
            put = ::send(fd_, data.data() + off, data.size() - off,
                         MSG_NOSIGNAL);
        } while (put < 0 && errno == EINTR);
        if (put <= 0)
            return false;
        off += static_cast<std::size_t>(put);
    }
    return true;
}

std::optional<Reply>
LineChannel::readReply()
{
    std::string head;
    if (!readLine(head))
        return std::nullopt;
    Reply reply;
    std::size_t off;
    if (head.rfind("ok ", 0) == 0) {
        reply.ok = true;
        off = 3;
    } else if (head.rfind("err ", 0) == 0) {
        reply.ok = false;
        off = 4;
    } else {
        return std::nullopt;
    }
    std::uint64_t n = 0;
    try {
        n = parseUnsigned(std::string_view(head).substr(off),
                          "reply line count", maxLineBytes);
    } catch (const FatalError &) {
        return std::nullopt; // garbage framing
    }
    reply.lines.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string line;
        if (!readLine(line))
            return std::nullopt;
        reply.lines.push_back(std::move(line));
    }
    return reply;
}

void
LineChannel::shutdownBoth()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RDWR);
}

void
LineChannel::shutdownRead()
{
    if (fd_ >= 0)
        ::shutdown(fd_, SHUT_RD);
}

} // namespace memories::service
