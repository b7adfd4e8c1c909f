#include "common/units.hh"

#include <cstdio>

#include "common/logging.hh"
#include "common/types.hh"

namespace memories
{

std::uint64_t
parseUnsigned(std::string_view token, std::string_view what,
              std::uint64_t max, unsigned base)
{
    std::string_view digits = token;
    if (base == 0) {
        if (digits.size() > 2 && digits[0] == '0' &&
            (digits[1] == 'x' || digits[1] == 'X')) {
            base = 16;
            digits.remove_prefix(2);
        } else {
            base = digits.size() > 1 && digits[0] == '0' ? 8 : 10;
        }
    }
    if (digits.empty())
        fatal(what, " '", token, "' is not a number");
    std::uint64_t value = 0;
    for (const char c : digits) {
        unsigned digit = base; // not a digit in any base
        if (c >= '0' && c <= '9')
            digit = static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<unsigned>(c - 'a') + 10;
        else if (c >= 'A' && c <= 'F')
            digit = static_cast<unsigned>(c - 'A') + 10;
        if (digit >= base)
            fatal(what, " '", token, "' is not a number");
        // value * base + digit <= max, without overflowing.
        if (digit > max || value > (max - digit) / base)
            fatal(what, " '", token, "' is out of range (max ", max, ")");
        value = value * base + digit;
    }
    return value;
}

std::uint64_t
parseByteSize(std::string_view text)
{
    if (text.empty())
        fatal("empty byte-size string");

    std::size_t digits = text.find_first_not_of("0123456789");
    if (digits == std::string_view::npos)
        digits = text.size();
    if (digits == 0)
        fatal("byte-size string '", std::string(text),
              "' does not start with a number");

    std::string_view unit = text.substr(digits);
    std::uint64_t scale = 1;
    if (unit.empty() || unit == "B" || unit == "b") {
        scale = 1;
    } else if (unit == "KB" || unit == "KiB" || unit == "K" || unit == "kB") {
        scale = KiB;
    } else if (unit == "MB" || unit == "MiB" || unit == "M") {
        scale = MiB;
    } else if (unit == "GB" || unit == "GiB" || unit == "G") {
        scale = GiB;
    } else {
        fatal("unknown byte-size unit '", std::string(unit), "'");
    }
    return parseUnsigned(text.substr(0, digits), "byte size",
                         std::numeric_limits<std::uint64_t>::max() /
                             scale) *
           scale;
}

std::string
formatByteSize(std::uint64_t bytes)
{
    char buf[32];
    if (bytes >= GiB && bytes % GiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluGB",
                      static_cast<unsigned long long>(bytes / GiB));
    else if (bytes >= MiB && bytes % MiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluMB",
                      static_cast<unsigned long long>(bytes / MiB));
    else if (bytes >= KiB && bytes % KiB == 0)
        std::snprintf(buf, sizeof(buf), "%lluKB",
                      static_cast<unsigned long long>(bytes / KiB));
    else
        std::snprintf(buf, sizeof(buf), "%lluB",
                      static_cast<unsigned long long>(bytes));
    return buf;
}

std::string
formatSeconds(double seconds)
{
    char buf[48];
    if (seconds < 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
    else if (seconds < 1.0)
        std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
    else if (seconds < 120.0)
        std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
    else if (seconds < 7200.0)
        std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
    else if (seconds < 2.0 * 86400.0)
        std::snprintf(buf, sizeof(buf), "%.1f hours", seconds / 3600.0);
    else
        std::snprintf(buf, sizeof(buf), "%.1f days", seconds / 86400.0);
    return buf;
}

} // namespace memories
