#include "service/session.hh"

#include <sstream>
#include <utility>

#include "campaign/console.hh"
#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
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
Session::statePath(const std::string &state_dir, const std::string &name)
{
    return state_dir + "/" + name + ".ckpt";
}

std::string
Session::execute(const std::string &line)
{
    std::string reply = console_->execute(line);
    // Feeds reach the board through feedBatch, which never moves the
    // bus; the bus is the console's clock (monitor windows, trace
    // marks), so carry it forward to the last record fed.
    bus_->advanceTo(ingest_.prevCycle());
    return reply;
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
           << ingest_.twins().size();
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

    // One container, one atomic write: the main board's sections, the
    // session section, then each twin's own container as one section.
    const ies::MemoriesBoard &board = *console_->board();
    ckpt::CheckpointWriter writer;
    board.saveState(writer);
    {
        ckpt::Sink &session = writer.section(ckpt::secSession);
        session.str(name_);
        ingest_.saveState(session);
        session.u64(ingest_.twins().size());
        for (const StreamIngest::Twin &twin : ingest_.twins()) {
            session.u64(twin.seed);
            session.str(twin.label);
        }
        const std::vector<std::string> &config = console_->configLines();
        session.u64(config.size());
        for (const std::string &line : config)
            session.str(line);
    }
    for (std::size_t i = 0; i < ingest_.twins().size(); ++i) {
        const ies::MemoriesBoard &twin = *ingest_.twins()[i].board;
        ckpt::CheckpointWriter own;
        twin.saveState(own);
        const std::vector<std::uint8_t> bytes =
            own.bytes(twin.config().fingerprint());
        writer.section(ckpt::secTwinBase + static_cast<std::uint32_t>(i))
            .raw(bytes.data(), bytes.size());
    }
    ckpt::ensureDir(options_.stateDir);
    writer.writeFile(statePath(options_.stateDir, name_),
                     board.config().fingerprint());

    suspendedOk_ = true;
    return "suspended '" + name_ + "' (" +
           std::to_string(ingest_.refsAccepted()) +
           " refs); reconnect and run: session resume " + name_;
}

std::string
Session::resume(const std::string &name)
{
    if (console_->initialized())
        fatal("session resume requires a fresh session (no init yet)");
    if (ingest_.refsOffered() != 0)
        fatal("session resume requires a fresh session (no feeds yet)");

    // Parse and CRC-check the whole file and decode the session
    // section before the console runs a line: a corrupt file leaves
    // the session fresh.
    const std::string path = statePath(options_.stateDir, name);
    const ckpt::CheckpointImage image = ckpt::CheckpointImage::fromBytes(
        ckpt::readFileBytes(path, "session file"),
        "session file '" + path + "'");
    ckpt::Source session = image.open(ckpt::secSession);
    if (session.str() != name)
        fatal(session.context(), ": holds another session's name");
    StreamIngest staged(options_.maxBatch);
    staged.loadState(session);
    std::vector<std::pair<std::uint64_t, std::string>> roster;
    for (std::uint64_t i = 0, n = session.u64(); i < n; ++i) {
        const std::uint64_t seed = session.u64();
        roster.emplace_back(seed, session.str());
    }
    std::vector<std::string> script;
    for (std::uint64_t i = 0, n = session.u64(); i < n; ++i)
        script.push_back(session.str());
    session.expectEnd();
    std::vector<ckpt::CheckpointImage> twinImages;
    for (std::size_t i = 0; i < roster.size(); ++i) {
        ckpt::Source twin =
            image.open(ckpt::secTwinBase + static_cast<std::uint32_t>(i));
        std::vector<std::uint8_t> bytes(twin.remaining());
        twin.raw(bytes.data(), bytes.size());
        twinImages.push_back(ckpt::CheckpointImage::fromBytes(
            std::move(bytes), twin.context()));
    }

    // Rebuild: the config lines stage the board, which loads its
    // sections, and the twins load theirs, all before the console
    // plugs the board in. Every step fails closed through fatal(),
    // leaving the caller's "error: ..." reply to describe the first
    // mismatch, and a failure leaves the session as it was. The
    // console records the replayed lines for the next suspend.
    console_->initFrom(script, [&](ies::MemoriesBoard &board) {
        board.loadState(image);
        for (std::size_t i = 0; i < roster.size(); ++i) {
            staged.addTwin(board.config(), roster[i].first,
                           roster[i].second)
                .loadState(twinImages[i]);
        }
    });
    ingest_ = std::move(staged);
    setName(name);
    return "resumed '" + name + "' at cycle " +
           std::to_string(ingest_.prevCycle()) + " (" +
           std::to_string(ingest_.refsAccepted()) + " refs)";
}

} // namespace memories::service
