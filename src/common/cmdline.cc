#include "common/cmdline.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>

namespace memories
{

CommandLine &
CommandLine::flag(const std::string &name, bool &on)
{
    flags_.push_back({name, false, [&on](std::string_view) { on = true; }});
    return *this;
}

CommandLine &
CommandLine::command(std::string name)
{
    commands_.emplace_back().name_ = std::move(name);
    return commands_.back();
}

CommandLine::Reader
CommandLine::reader(const std::string &name, double &target)
{
    return [&target, name](std::string_view text) {
        // Digits with an optional fraction: "5" and "0.05", not ".5".
        if (text.find_first_not_of("0123456789.") != std::string_view::npos ||
            text.front() == '.' || text.back() == '.' ||
            text.find('.') != text.rfind('.'))
            fatal(name, " '", text, "' is not a decimal number");
        double v = 0;
        std::from_chars(text.data(), text.data() + text.size(), v);
        if (!(v > 0 && v <= 1e6))
            fatal(name, " '", text, "' is out of range (0 to 1000000)");
        target = v;
    };
}

void
CommandLine::read(std::span<const std::string_view> args) const
{
    std::size_t next = 0;
    for (const std::string_view arg : args) {
        std::string_view name, value = arg;
        const Arg *target = nullptr;
        if (arg.size() > 1 && arg[0] == '-') {
            const std::size_t eq = arg.find('=');
            name = arg.substr(0, eq);
            const auto it =
                std::find_if(flags_.begin(), flags_.end(),
                             [&](const Arg &f) { return f.name == name; });
            if (it == flags_.end())
                fatal("unknown option '", name, "'");
            target = &*it;
            if (!target->valued) {
                if (eq != std::string_view::npos)
                    fatal(name, " takes no value");
                target->read({});
                continue;
            }
            if (eq == std::string_view::npos)
                fatal(name, " needs a value (", name, "=...)");
            value = arg.substr(eq + 1);
        } else {
            if (next == positionals_.size())
                fatal("unexpected argument '", arg, "'");
            target = &positionals_[next++];
            name = target->name;
        }
        if (value.empty())
            fatal(name, " has an empty value");
        target->read(value);
    }
    if (next < positionals_.size())
        fatal("missing <", positionals_[next].name, ">");
}

namespace
{

/** argv[0]'s base name, or "?" without one. */
std::string
progName(int argc, const char *const *argv)
{
    if (argc == 0)
        return "?";
    const std::string_view path = argv[0];
    return std::string(path.substr(path.find_last_of('/') + 1));
}

} // namespace

std::string
CommandLine::parse(int argc, const char *const *argv)
{
    prog_ = progName(argc, argv);
    const std::vector<std::string_view> args(argv + (argc > 0),
                                             argv + argc);
    if (commands_.empty()) {
        read(args);
        return "";
    }
    if (args.empty())
        fatal("missing command");
    for (const CommandLine &command : commands_) {
        if (command.name_ == args[0]) {
            command.read(std::span(args).subspan(1));
            return command.name_;
        }
    }
    fatal("unknown command '", args[0], "'");
}

std::string
CommandLine::parseOrExit(int argc, const char *const *argv)
{
    try {
        return parse(argc, argv);
    } catch (const FatalError &err) {
        fail(err.what());
    }
}

void
CommandLine::fail(std::string_view reason) const
{
    std::string text = prog_ + ": " + std::string(reason) + "\n";
    std::string_view lead = "usage:", rest = synopsis_;
    do {
        const std::size_t eol = rest.find('\n');
        text += std::string(lead) + " " + prog_ +
                (rest.empty() ? "" : " ") + std::string(rest.substr(0, eol)) +
                "\n";
        lead = "      ";
        rest = eol == std::string_view::npos ? "" : rest.substr(eol + 1);
    } while (!rest.empty());
    std::fputs(text.c_str(), stderr);
    std::exit(2);
}

int
runMain(int argc, char **argv, int (*body)(int, char **))
{
    try {
        return body(argc, argv);
    } catch (const std::exception &err) {
        std::fprintf(stderr, "%s: %s\n", progName(argc, argv).c_str(),
                     err.what());
        return 1;
    }
}

std::uint64_t
parseRefs(int argc, const char *const *argv, double millions)
{
    CommandLine("[--refs=<millions>]")
        .flag("--refs", millions)
        .parseOrExit(argc, argv);
    return static_cast<std::uint64_t>(millions * 1e6);
}

} // namespace memories
