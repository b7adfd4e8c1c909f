/**
 * @file
 * Numbers, byte sizes and durations in text form.
 *
 * The console software configures the board with strings like "64MB" or
 * "1GB"; these helpers parse and print them. Sizes are binary (MB == MiB),
 * matching the paper's usage. Every integer token of the console grammar
 * and of the files it loads goes through parseUnsigned(), so they all
 * agree on what a number is and on overflow.
 */

#ifndef MEMORIES_COMMON_UNITS_HH
#define MEMORIES_COMMON_UNITS_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace memories
{

/**
 * Parse @p token as an unsigned integer no greater than @p max. With
 * @p base 10 the token is decimal digits only; with @p base 0 it follows
 * C's prefix rules (0x/0X hex, a leading 0 octal, else decimal). No sign,
 * space or trailing character is accepted. Throws FatalError naming
 * @p what when the token is malformed or the value exceeds @p max
 * ("... out of range").
 */
std::uint64_t parseUnsigned(
    std::string_view token, std::string_view what,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
    unsigned base = 10);

/**
 * Parse a byte-size string such as "128B", "2KB", "64MB", "8GB".
 * A bare number is taken as bytes. Throws FatalError on malformed input
 * or a size that does not fit in 64 bits.
 */
std::uint64_t parseByteSize(std::string_view text);

/** Format a byte count using the largest exact binary unit. */
std::string formatByteSize(std::uint64_t bytes);

/** Format a duration given in seconds like the paper's tables do. */
std::string formatSeconds(double seconds);

} // namespace memories

#endif // MEMORIES_COMMON_UNITS_HH
