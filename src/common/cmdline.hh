/**
 * @file
 * The command line of every program in examples/ and bench/: each main
 * declares its flags, positionals and subcommands in one table bound to
 * typed targets and hands argv over before it does any work.
 *
 * Valued flags are spelled --name=value and switches --name. Integers
 * go through parseUnsigned() against their target's own range (and any
 * tighter bounds the table gives); decimals (--refs in millions,
 * --scale) are digits with an optional fraction, positive and at most
 * 1e6. An unknown flag, a missing, empty or malformed value, a bare
 * valued flag, a switch given a value, or too many or too few
 * positionals is a FatalError from parse(); parseOrExit() turns it into
 * "<prog>: <reason>", the usage and exit status 2. Each main runs its
 * work through runMain(), which turns an error thrown later into
 * "<prog>: <reason>" and exit status 1.
 */

#ifndef MEMORIES_COMMON_CMDLINE_HH
#define MEMORIES_COMMON_CMDLINE_HH

#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <list>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/units.hh"

namespace memories
{

class CommandLine
{
  public:
    /** Reads one argument's text into its target; throws FatalError. */
    using Reader = std::function<void(std::string_view text)>;

    /** @param synopsis The usage after "usage: <prog> ", a line a form. */
    explicit CommandLine(std::string synopsis = "")
        : synopsis_(std::move(synopsis)) {}

    /**
     * A valued flag --name=<value> read into @p target: a Reader, text,
     * a decimal, or an unsigned integer within @p bounds (min, then
     * max; default the target type's range).
     */
    template <typename T, typename... Bounds>
    CommandLine &
    flag(const std::string &name, T &&target, Bounds... bounds)
    {
        flags_.push_back(
            {name, true, reader(name, std::forward<T>(target), bounds...)});
        return *this;
    }

    /** A switch --name: sets @p on. */
    CommandLine &flag(const std::string &name, bool &on);

    /** The next positional argument, read like a valued flag. */
    template <typename T, typename... Bounds>
    CommandLine &
    positional(const std::string &name, T &&target, Bounds... bounds)
    {
        positionals_.push_back(
            {name, true, reader(name, std::forward<T>(target), bounds...)});
        return *this;
    }

    /**
     * Declare subcommand @p name: once any is declared, the first
     * argument must name one, and the table returned reads the rest.
     */
    CommandLine &command(std::string name);

    /** Read @p argv; returns the subcommand named, or "" if none. */
    std::string parse(int argc, const char *const *argv);

    /** parse(), or fail() with the reason it threw. */
    std::string parseOrExit(int argc, const char *const *argv);

    /** Print "<prog>: <reason>" and the usage, then exit 2. */
    [[noreturn]] void fail(std::string_view reason) const;

  private:
    struct Arg
    {
        std::string name;
        bool valued;
        Reader read;
    };

    void read(std::span<const std::string_view> args) const;

    static Reader reader(const std::string &, Reader read) { return read; }
    static Reader
    reader(const std::string &, std::string &target)
    {
        return [&target](std::string_view text) { target = text; };
    }
    static Reader reader(const std::string &name, double &target);

    template <std::unsigned_integral T>
    static Reader
    reader(const std::string &name, T &target,
           std::type_identity_t<T> min = 0,
           std::type_identity_t<T> max = std::numeric_limits<T>::max())
    {
        return [&target, name, min, max](std::string_view text) {
            const std::uint64_t v = parseUnsigned(text, name, max);
            if (v < min)
                fatal(name, " '", text, "' is out of range (min ", min,
                      ")");
            target = static_cast<T>(v);
        };
    }

    std::string synopsis_;
    std::string name_; //!< of a subcommand
    std::string prog_ = "?";
    std::vector<Arg> flags_;
    std::vector<Arg> positionals_;
    std::list<CommandLine> commands_;
};

/**
 * Run @p body, a main's work, and return its exit status. A FatalError
 * or any other std::exception escaping it prints "<prog>: <message>"
 * (prog is argv[0]'s base name) and returns 1, so no program aborts on
 * an error it can name.
 */
int runMain(int argc, char **argv, int (*body)(int, char **));

/**
 * The reference count of a program whose one flag is --refs=<millions>
 * (@p millions when it is absent), read like CommandLine::parseOrExit().
 */
std::uint64_t parseRefs(int argc, const char *const *argv, double millions);

} // namespace memories

#endif // MEMORIES_COMMON_CMDLINE_HH
