#include "service/session.hh"

#include <sstream>

#include "campaign/console.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "fault/health.hh"

namespace memories::service
{

namespace
{

/** Session names become file names; keep them path-safe. */
void
validateName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        fatal("session name must be 1..64 characters");
    for (char c : name) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                        c == '.';
        if (!ok)
            fatal("session name '", name,
                  "' may only use letters, digits, '-', '_', '.'");
    }
    if (name[0] == '.')
        fatal("session name may not start with '.'");
}

std::uint64_t
parseField(const std::string &line, const std::string &key)
{
    if (line.rfind(key + " ", 0) != 0)
        fatal("session manifest: expected '", key, " ...', got '", line,
              "'");
    return parseUnsigned(std::string_view(line).substr(key.size() + 1),
                         "session manifest " + key);
}

} // namespace

Session::Session(const SessionOptions &options, std::string name)
    : options_(options), name_(std::move(name)),
      bus_(std::make_unique<bus::Bus6xx>()),
      console_(std::make_unique<ies::Console>(*bus_)),
      ingest_(options.maxBatch)
{
    ingest_.registerCommands(*console_);
    campaign::registerConsoleCommands(*console_);
    console_->registerCommand(
        "session", [this](ies::Console &, std::string_view line) {
            return handleSession(ies::splitWords(line));
        });
}

Session::~Session() = default;

std::string
Session::manifestPath(const std::string &state_dir, const std::string &name)
{
    return state_dir + "/" + name + ".iessess";
}

std::string
Session::execute(const std::string &line)
{
    return console_->execute(line);
}

std::string
Session::handleSession(const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "status") {
        std::ostringstream os;
        os << "name " << name_ << "\n"
           << "state "
           << (suspendedOk_
                   ? "suspended"
                   : (console_->initialized() ? "serving" : "fresh"))
           << "\n"
           << "refs " << ingest_.refsAccepted() << " twins "
           << ingest_.fleet().numExperiments();
        if (console_->initialized())
            os << "\nhealth "
               << fault::healthStateName(
                      console_->board()->healthState());
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "name") {
        if (tokens.size() != 3)
            fatal("usage: session name <name>");
        validateName(tokens[2]);
        setName(tokens[2]);
        return "session named '" + tokens[2] + "'";
    }
    if (sub == "suspend") {
        if (tokens.size() != 2)
            fatal("usage: session suspend");
        return suspend();
    }
    if (sub == "resume") {
        if (tokens.size() != 3)
            fatal("usage: session resume <name>");
        validateName(tokens[2]);
        return resume(tokens[2]);
    }
    fatal("usage: session [status|name <n>|suspend|resume <n>]");
}

std::string
Session::suspend()
{
    if (!console_->initialized())
        fatal("session suspend requires an initialized board");
    // Fail closed on runtime attachments a resume cannot rebuild: the
    // checkpoint captures the board, not console-side wiring.
    if (console_->flightRecorder())
        fatal("session suspend: stop the flight recorder first "
              "('trace stop')");
    if (console_->profiler())
        fatal("session suspend: stop the profiler first ('prof stop')");
    if (console_->faultInjector())
        fatal("session suspend: disarm fault injection first "
              "('fault disarm')");
    if (console_->monitoring())
        fatal("session suspend: stop the telemetry monitor first "
              "('monitor stop')");
    validateName(name_);

    ckpt::ensureDir(options_.stateDir);
    const std::string base = options_.stateDir + "/" + name_;
    console_->board()->saveState(base + ".ckpt");
    ies::ExperimentFleet &fleet = ingest_.fleet();
    for (std::size_t i = 0; i < fleet.numExperiments(); ++i)
        fleet.board(i).saveState(base + ".twin" + std::to_string(i) +
                                 ".ckpt");

    const StreamIngest::State s = ingest_.state();
    std::ostringstream os;
    os << "IESSESS 1\n"
       << "name " << name_ << "\n"
       << "pace " << (s.paced ? 1 : 0) << "\n"
       << "prev-cycle " << s.prevCycle << "\n"
       << "offered " << s.refsOffered << "\n"
       << "attempted " << s.refsAttempted << "\n"
       << "accepted " << s.refsAccepted << "\n"
       << "backpressure " << s.backpressure << "\n"
       << "overflow " << s.overflowDrops << "\n"
       << "feed-lines " << s.feedLines << "\n"
       << "resyncs " << s.resyncs << "\n"
       << "twins " << fleet.numExperiments() << "\n";
    for (std::size_t i = 0; i < fleet.numExperiments(); ++i)
        os << "twin " << ingest_.fleetSeed(i) << " " << fleet.label(i)
           << "\n";
    const std::vector<std::string> &config = console_->configLines();
    os << "config-lines " << config.size() << "\n";
    for (const std::string &line : config)
        os << line << "\n";
    os << "end\n";
    const std::string manifest = os.str();
    ckpt::atomicWriteFile(manifestPath(options_.stateDir, name_),
                          manifest.data(), manifest.size());

    suspendedOk_ = true;
    return "suspended '" + name_ + "' (" +
           std::to_string(s.refsAccepted) +
           " refs); reconnect and run: session resume " + name_;
}

std::string
Session::resume(const std::string &name)
{
    if (console_->initialized())
        fatal("session resume requires a fresh session (no init yet)");
    if (ingest_.refsOffered() != 0)
        fatal("session resume requires a fresh session (no feeds yet)");

    const std::string path = manifestPath(options_.stateDir, name);
    const std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(path, "session manifest");
    std::istringstream is(
        std::string(reinterpret_cast<const char *>(bytes.data()),
                    bytes.size()));
    std::string line;
    auto nextLine = [&]() -> std::string & {
        if (!std::getline(is, line))
            fatal("session manifest ", path, ": truncated");
        return line;
    };

    if (nextLine() != "IESSESS 1")
        fatal("session manifest ", path, ": bad magic/version '", line,
              "'");
    if (nextLine() != "name " + name)
        fatal("session manifest ", path, ": name mismatch ('", line,
              "')");
    StreamIngest::State s;
    s.paced = parseField(nextLine(), "pace") != 0;
    s.prevCycle = parseField(nextLine(), "prev-cycle");
    s.refsOffered = parseField(nextLine(), "offered");
    s.refsAttempted = parseField(nextLine(), "attempted");
    s.refsAccepted = parseField(nextLine(), "accepted");
    s.backpressure = parseField(nextLine(), "backpressure");
    s.overflowDrops = parseField(nextLine(), "overflow");
    s.feedLines = parseField(nextLine(), "feed-lines");
    s.resyncs = parseField(nextLine(), "resyncs");
    const std::uint64_t twins = parseField(nextLine(), "twins");
    struct TwinEntry
    {
        std::uint64_t seed;
        std::string label;
    };
    std::vector<TwinEntry> twinEntries;
    for (std::uint64_t i = 0; i < twins; ++i) {
        const std::vector<std::string> tokens = ies::splitWords(nextLine());
        if (tokens.size() != 3 || tokens[0] != "twin")
            fatal("session manifest ", path, ": bad twin line '", line,
                  "'");
        twinEntries.push_back(
            {parseUnsigned(tokens[1], "session manifest twin seed"),
             tokens[2]});
    }
    const std::uint64_t configLines =
        parseField(nextLine(), "config-lines");
    std::vector<std::string> script;
    for (std::uint64_t i = 0; i < configLines; ++i)
        script.push_back(nextLine());
    if (nextLine() != "end")
        fatal("session manifest ", path, ": missing 'end'");

    // Rebuild: config script, init, board + twin checkpoints, stream
    // scalars. Every step fails closed through fatal(), leaving the
    // caller's "error: ..." reply to describe the first mismatch. The
    // console records the replayed lines for the next suspend.
    for (const std::string &cfg : script) {
        const std::string reply = console_->execute(cfg);
        if (reply.rfind("error:", 0) == 0)
            fatal("resume: config replay of '", cfg, "' failed: ", reply);
    }
    const std::string initReply = console_->execute("init");
    if (initReply.rfind("error:", 0) == 0)
        fatal("resume: init failed: ", initReply);
    const std::string base = options_.stateDir + "/" + name;
    console_->board()->loadState(base + ".ckpt");
    for (std::size_t i = 0; i < twinEntries.size(); ++i) {
        const std::size_t index =
            ingest_.addTwin(console_->board()->config(),
                            twinEntries[i].seed, twinEntries[i].label);
        ingest_.fleet().board(index).loadState(
            base + ".twin" + std::to_string(i) + ".ckpt");
    }
    ingest_.restore(s);
    setName(name);
    return "resumed '" + name + "' at cycle " +
           std::to_string(s.prevCycle) + " (" +
           std::to_string(s.refsAccepted) + " refs)";
}

} // namespace memories::service
