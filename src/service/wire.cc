#include "service/wire.hh"

#include <array>
#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/units.hh"

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

constexpr char hexDigits[] = "0123456789abcdef";

/** Nibble value of each byte; 0x10 marks a byte that is not a digit. */
constexpr std::array<std::uint8_t, 256> hexNibble = [] {
    std::array<std::uint8_t, 256> table{};
    table.fill(0x10);
    for (int c = '0'; c <= '9'; ++c)
        table[c] = static_cast<std::uint8_t>(c - '0');
    for (int c = 'a'; c <= 'f'; ++c)
        table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    return table;
}();

} // namespace

void
appendRecordHex(std::string &out, std::uint64_t raw)
{
    char digits[16];
    for (int i = 15; i >= 0; --i) {
        digits[i] = hexDigits[raw & 0xf];
        raw >>= 4;
    }
    out.append(digits, sizeof digits);
}

std::string
encodeRecordHex(std::uint64_t raw)
{
    std::string hex;
    appendRecordHex(hex, raw);
    return hex;
}

std::optional<std::uint64_t>
decodeRecordHex(std::string_view token)
{
    if (token.size() != 16)
        return std::nullopt;
    std::uint64_t raw = 0;
    unsigned invalid = 0;
    for (const char c : token) {
        const std::uint8_t nibble = hexNibble[static_cast<unsigned char>(c)];
        invalid |= nibble;
        raw = (raw << 4) | (nibble & 0xf);
    }
    if (invalid & 0x10)
        return std::nullopt;
    return raw;
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
