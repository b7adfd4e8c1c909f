/**
 * @file
 * StateCodec: the byte-stream visitor every checkpointable component
 * implements (`saveState(Sink&)` / `loadState(Source&)`).
 *
 * One pair of primitives serializes all board state — directories,
 * counters, buffers, RNG streams, health machines — so there is a
 * single source of truth for state transfer: the IESCKPT file writer
 * (checkpoint/file.hh), MemoriesBoard::resyncFrom, and the console
 * `ckpt` family all speak through this codec rather than through
 * per-component ad-hoc exports.
 *
 * Design rules:
 *
 *  - *Fail closed.* Source throws (fatal()) on any truncated or
 *    malformed read, tagged with a caller-supplied context string, so
 *    a bad checkpoint produces a diagnostic instead of a corrupt
 *    board. The board stages and components load: each component's
 *    loadState decodes straight into the object and may leave it
 *    half-written when it throws, so MemoriesBoard::loadState and
 *    resyncFrom load every section into a staged object and move the
 *    staged objects into the live ones only once all of them loaded.
 *  - *Explicitly sized.* Every variable-length field is preceded by
 *    its count; nothing is inferred from stream position.
 *  - *Header-only.* Sink/Source are fully inline so low-level modules
 *    (common, cache, fault) can implement the codec without linking
 *    the checkpoint library; only the IESCKPT file layer lives in
 *    libmemories_checkpoint.
 *
 * Integers are encoded little-endian regardless of host order so
 * checkpoint files transfer between machines.
 */

#ifndef MEMORIES_CHECKPOINT_CODEC_HH
#define MEMORIES_CHECKPOINT_CODEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace memories::ckpt
{

namespace detail
{

/**
 * Slicing-by-8 lookup tables for the reflected IEEE polynomial.
 * table[0] is the classic byte-at-a-time table; table[s] advances a
 * byte s positions further into the stream, so eight table lookups
 * consume eight input bytes per iteration.
 */
struct Crc32Tables {
    std::uint32_t t[8][256];
};

inline const Crc32Tables &
crc32Tables()
{
    static const Crc32Tables tables = [] {
        Crc32Tables tb{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c >> 1) ^ (0xEDB88320u & (~(c & 1u) + 1u));
            tb.t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            for (int s = 1; s < 8; ++s) {
                tb.t[s][i] = (tb.t[s - 1][i] >> 8) ^
                             tb.t[0][tb.t[s - 1][i] & 0xffu];
            }
        }
        return tb;
    }();
    return tables;
}

} // namespace detail

/**
 * CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over @p len
 * bytes, chainable via @p crc. Guards every IESCKPT section payload
 * and the header/section table. Slicing-by-8 so validating a
 * multi-megabyte directory slab costs ~1 cycle/byte instead of the
 * bitwise loop's ~20 — the restore path CRCs every section before
 * decoding, so this is warm-start latency, not just hygiene.
 */
inline std::uint32_t
crc32(const void *data, std::size_t len, std::uint32_t crc = 0)
{
    const auto *p = static_cast<const unsigned char *>(data);
    const auto &t = detail::crc32Tables().t;
    crc = ~crc;
    while (len >= 8) {
        // Endian-independent 32-bit assembly keeps the stream CRC
        // identical across hosts (files are defined little-endian).
        const std::uint32_t lo =
            (static_cast<std::uint32_t>(p[0]) |
             (static_cast<std::uint32_t>(p[1]) << 8) |
             (static_cast<std::uint32_t>(p[2]) << 16) |
             (static_cast<std::uint32_t>(p[3]) << 24)) ^
            crc;
        const std::uint32_t hi =
            static_cast<std::uint32_t>(p[4]) |
            (static_cast<std::uint32_t>(p[5]) << 8) |
            (static_cast<std::uint32_t>(p[6]) << 16) |
            (static_cast<std::uint32_t>(p[7]) << 24);
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
        p += 8;
        len -= 8;
    }
    for (std::size_t i = 0; i < len; ++i)
        crc = (crc >> 8) ^ t[0][(crc ^ p[i]) & 0xffu];
    return ~crc;
}

/** Byte sink half of the StateCodec: components append, never seek. */
class Sink
{
  public:
    void u8(std::uint8_t v) { bytes_.push_back(v); }

    void u16(std::uint16_t v) { putLe(v, 2); }
    void u32(std::uint32_t v) { putLe(v, 4); }
    void u64(std::uint64_t v) { putLe(v, 8); }

    /** Raw bytes; pair with an explicit preceding count. */
    void raw(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        bytes_.insert(bytes_.end(), p, p + len);
    }

    /** Length-prefixed string. */
    void str(std::string_view s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    std::size_t size() const { return bytes_.size(); }
    const std::vector<std::uint8_t> &bytes() const { return bytes_; }
    std::vector<std::uint8_t> &&take() { return std::move(bytes_); }

  private:
    void putLe(std::uint64_t v, unsigned n)
    {
        for (unsigned i = 0; i < n; ++i)
            bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    std::vector<std::uint8_t> bytes_;
};

/**
 * Byte source half of the StateCodec: a sequential view over one
 * section's payload. Every read past the end fatal()s with the
 * section's context string — restores fail closed, they never return
 * garbage.
 */
class Source
{
  public:
    Source(const std::uint8_t *data, std::size_t len,
           std::string context)
        : data_(data), len_(len), context_(std::move(context))
    {}

    std::uint8_t u8() { return static_cast<std::uint8_t>(getLe(1)); }
    std::uint16_t u16() { return static_cast<std::uint16_t>(getLe(2)); }
    std::uint32_t u32() { return static_cast<std::uint32_t>(getLe(4)); }
    std::uint64_t u64() { return getLe(8); }

    void raw(void *out, std::size_t len)
    {
        need(len);
        auto *dst = static_cast<unsigned char *>(out);
        for (std::size_t i = 0; i < len; ++i)
            dst[i] = data_[pos_ + i];
        pos_ += len;
    }

    std::string str()
    {
        const std::uint64_t n = u64();
        if (n > remaining()) {
            fatal(context_, ": string length ", n, " exceeds the ",
                  remaining(), " bytes left in the section");
        }
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += static_cast<std::size_t>(n);
        return s;
    }

    std::size_t remaining() const { return len_ - pos_; }

    /** Caller-facing context ("checkpoint 'x.ckpt' node 2 section"). */
    const std::string &context() const { return context_; }

    /** Assert the component consumed its payload exactly. */
    void expectEnd() const
    {
        if (pos_ != len_) {
            fatal(context_, ": ", len_ - pos_,
                  " trailing bytes after the decoded state");
        }
    }

  private:
    void need(std::size_t n) const
    {
        if (n > remaining())
            fatal(context_, ": truncated (wanted ", n, " more bytes, ",
                  remaining(), " left)");
    }

    std::uint64_t getLe(unsigned n)
    {
        need(n);
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += n;
        return v;
    }

    const std::uint8_t *data_;
    std::size_t len_;
    std::size_t pos_ = 0;
    std::string context_;
};

} // namespace memories::ckpt

#endif // MEMORIES_CHECKPOINT_CODEC_HH
