#include "ies/console.hh"

#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <optional>
#include <sstream>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "ies/analysis.hh"
#include "profile/profiler.hh"
#include "telemetry/exporter.hh"
#include "trace/chrometrace.hh"
#include "trace/tracefile.hh"

namespace memories::ies
{

namespace
{

/** True when @p op is the busOpName() of a bus::isReferenceOp(). */
bool
isReferenceName(std::string_view op)
{
    for (std::size_t i = 0; i < bus::numBusOps; ++i) {
        const auto o = static_cast<bus::BusOp>(i);
        if (bus::isReferenceOp(o) && bus::busOpName(o) == op)
            return true;
    }
    return false;
}

/**
 * The console's "monitor" view of one closed window: per-node miss
 * ratios computed from window *deltas* (the live readout the hardware
 * console gave the operator) plus bus activity.
 */
std::string
monitorView(const telemetry::WindowRecord &w)
{
    struct NodeWindow
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    std::map<std::string, NodeWindow> nodes;
    std::uint64_t busTenures = 0;
    bool sawBus = false;

    for (const auto &c : w.counters) {
        const std::string &name = *c.name;
        if (name == "bus.tenures") {
            busTenures = c.delta;
            sawBus = true;
            continue;
        }
        // Per-node references look like
        // "<prefix>.nodeN.local.<op>.hit|miss"; like NodeStats, only
        // reference ops count (not cast-outs).
        const auto local = name.find(".local.");
        if (local == std::string::npos)
            continue;
        const auto node = name.rfind("node", local);
        const std::string_view op = std::string_view(name).substr(local + 7);
        const auto dot = op.find('.');
        if (node == std::string::npos || dot == std::string::npos ||
            !isReferenceName(op.substr(0, dot)))
            continue;
        NodeWindow &nw = nodes[name.substr(node, local - node)];
        const std::string_view outcome = op.substr(dot);
        if (outcome == ".hit")
            nw.hits += c.delta;
        else if (outcome == ".miss")
            nw.misses += c.delta;
    }

    std::ostringstream os;
    os << "window " << w.index << " [" << w.beginCycle << ", "
       << w.endCycle << ")";
    if (sawBus) {
        const Cycle span = w.endCycle - w.beginCycle;
        os << " bus tenures " << busTenures;
        if (span > 0) {
            os << " utilization " << std::fixed << std::setprecision(1)
               << 100.0 * static_cast<double>(busTenures) /
                      static_cast<double>(span)
               << "%";
        }
    }
    os << "\n";
    for (const auto &[label, nw] : nodes) {
        const std::uint64_t refs = nw.hits + nw.misses;
        os << "  " << label << ": refs " << refs << " misses "
           << nw.misses << " miss-ratio ";
        if (refs == 0) {
            os << "n/a";
        } else {
            os << std::fixed << std::setprecision(4)
               << static_cast<double>(nw.misses) /
                      static_cast<double>(refs);
        }
        os << "\n";
    }
    return os.str();
}

} // namespace

/** Owns one monitor session: the sampler, its view, and its file. */
struct ConsoleMonitor
{
    telemetry::Sampler sampler;
    /** monitorView() of the most recent closed window. */
    std::string latest;
    /** The JSON Lines file `monitor start` named, if any. */
    std::ofstream jsonl;

    explicit ConsoleMonitor(Cycle window) : sampler(window) {}
    // The sampler's exporters hold this monitor's address.
    ConsoleMonitor(const ConsoleMonitor &) = delete;
    ConsoleMonitor &operator=(const ConsoleMonitor &) = delete;
};

std::vector<std::string>
splitWords(std::string_view line)
{
    std::vector<std::string> words;
    for (std::string_view w = nextWord(line); !w.empty(); w = nextWord(line))
        words.emplace_back(w);
    return words;
}

namespace
{

constexpr std::uint64_t maxUnsigned = std::numeric_limits<unsigned>::max();

std::vector<CpuId>
parseCpuList(const std::string &text)
{
    std::vector<CpuId> cpus;
    std::istringstream is(text);
    std::string part;
    while (std::getline(is, part, ',')) {
        if (part.empty())
            fatal("empty CPU id in list '", text, "'");
        cpus.push_back(static_cast<CpuId>(parseUnsigned(
            part, "CPU id", std::numeric_limits<CpuId>::max())));
    }
    if (cpus.empty())
        fatal("empty CPU list");
    return cpus;
}

} // namespace

Console::Console(bus::Bus6xx &bus) : bus_(bus)
{
    // The builtin families. A configuring family's successful lines
    // before init restage the board, so they are recorded for replay.
    using Handler = std::string (Console::*)(const Tokens &);
    struct Builtin
    {
        const char *name;
        Handler handler;
        bool configures;
    };
    static constexpr Builtin builtins[] = {
        {"node", &Console::handleNode, true},
        {"buffer", &Console::handleBuffer, true},
        {"throughput", &Console::handleThroughput, true},
        {"capture", &Console::handleCapture, true},
        {"health", &Console::handleHealth, true},
        {"init", &Console::handleInit, false},
        {"stats", &Console::handleStats, false},
        {"counters", &Console::handleCounters, false},
        {"clear", &Console::handleClear, false},
        {"reset", &Console::handleReset, false},
        {"dump-trace", &Console::handleDumpTrace, false},
        {"save-state", &Console::handleCkpt, false},
        {"load-state", &Console::handleCkpt, false},
        {"ckpt", &Console::handleCkpt, false},
        {"save-protocol", &Console::handleSaveProtocol, false},
        {"export-csv", &Console::handleExportCsv, false},
        {"monitor", &Console::handleMonitor, false},
        {"trace", &Console::handleTrace, false},
        {"prof", &Console::handleProf, false},
        {"fault", &Console::handleFault, false},
        {"script", &Console::handleScript, false},
        {"shutdown", &Console::handleShutdown, false},
        {"help", &Console::handleHelp, false},
    };
    for (const Builtin &b : builtins) {
        commands_[b.name] = {
            [handler = b.handler](Console &c, std::string_view line) {
                return (c.*handler)(splitWords(line));
            },
            true, b.configures};
    }
}

Console::~Console()
{
    stopMonitor();
    stopTrace();
    stopProf();
    disarmFaults();
    if (board_)
        board_->unplug(bus_);
}

void
Console::disarmFaults()
{
    if (!injector_)
        return;
    bus_.detach(injector_.get());
    if (board_ && board_->faultInjector() == injector_.get())
        board_->detachFaultInjector();
    injector_.reset();
}

void
Console::stopMonitor()
{
    if (!monitor_)
        return;
    bus_.detachSampler();
    monitor_->sampler.finish(bus_.now());
    monitor_.reset();
}

void
Console::stopTrace()
{
    if (!recorder_)
        return;
    if (bus_.flightRecorder() == recorder_.get())
        bus_.detachFlightRecorder();
    if (board_ && board_->flightRecorder() == recorder_.get())
        board_->detachFlightRecorder();
    recorder_.reset();
    autodump_ = {};
}

void
Console::stopProf()
{
    if (!profiler_)
        return;
    if (board_ && board_->profiler() == profiler_.get())
        board_->detachProfiler();
    profiler_.reset();
}

NodeConfig &
Console::nodeFor(std::size_t index)
{
    if (index >= 2 * maxBoardNodes)
        fatal("node index ", index, " out of range");
    while (staged_.nodes.size() <= index)
        staged_.nodes.emplace_back();
    return staged_.nodes[index];
}

BoardConfig &
Console::requireStaged(const Tokens &tokens)
{
    if (board_)
        fatal("'", tokens[0], "' is only legal before init");
    return staged_;
}

MemoriesBoard &
Console::requireBoard(const Tokens &tokens)
{
    if (!board_)
        fatal("'", tokens[0], "' requires an initialized board");
    return *board_;
}

void
Console::registerCommand(const std::string &name,
                         CommandHandler handler)
{
    if (name.empty() || !handler)
        fatal("registerCommand needs a name and a handler");
    Command &command = commands_[name];
    if (!command.builtin)
        command.handler = std::move(handler);
}

std::string
Console::execute(std::string_view command_line)
{
    try {
        std::string_view rest = command_line;
        const std::string_view name = nextWord(rest);
        if (name.empty())
            return "";
        const auto it = commands_.find(name);
        if (it == commands_.end())
            fatal("unknown command '", name, "'");
        // A configuring family's line before init is recorded once it
        // succeeds, except its status query (the bare name or `<name>
        // status`), which only reads. A rejected one leaves the staged
        // config as it was, so the recorded lines restage it exactly.
        std::optional<BoardConfig> undo;
        bool record = false;
        if (it->second.configures && !board_) {
            undo = staged_;
            const std::string_view sub = nextWord(rest);
            record = !sub.empty() && sub != "status";
        }
        std::string reply;
        try {
            reply = it->second.handler(*this, command_line);
        } catch (...) {
            if (undo)
                staged_ = std::move(*undo);
            throw;
        }
        if (record)
            configLines_.emplace_back(command_line);
        return reply;
    } catch (const FatalError &err) {
        return std::string("error: ") + err.what();
    } catch (const std::exception &err) {
        // A handler (builtin or registered extension) leaked a raw
        // exception. The console is the wire surface of a long-running
        // daemon, so convert it to an error reply instead of letting
        // it unwind a serve thread into std::terminate.
        return std::string("error: internal: ") + err.what();
    }
}

std::string
Console::handleNode(const Tokens &tokens)
{
    requireStaged(tokens);
    if (tokens.size() < 3)
        fatal("usage: node <i> <subcommand> ...");
    NodeConfig &node = nodeFor(parseUnsigned(tokens[1], "node index"));
    const std::string &sub = tokens[2];
    if (sub == "cache") {
        if (tokens.size() < 6)
            fatal("usage: node <i> cache <size> <assoc> <line> "
                  "[policy]");
        node.cache.sizeBytes = parseByteSize(tokens[3]);
        node.cache.assoc = static_cast<unsigned>(
            parseUnsigned(tokens[4], "associativity", maxUnsigned));
        node.cache.lineSize = parseByteSize(tokens[5]);
        if (tokens.size() > 6) {
            const std::string &pol = tokens[6];
            if (pol == "LRU")
                node.cache.policy = cache::ReplacementPolicy::LRU;
            else if (pol == "FIFO")
                node.cache.policy = cache::ReplacementPolicy::FIFO;
            else if (pol == "Random")
                node.cache.policy =
                    cache::ReplacementPolicy::Random;
            else if (pol == "TreePLRU")
                node.cache.policy =
                    cache::ReplacementPolicy::TreePLRU;
            else
                fatal("unknown replacement policy '", pol, "'");
        }
        node.cache.validate(cache::boardBounds());
        return "node cache set to " + node.cache.describe();
    }
    if (sub == "cpus") {
        if (tokens.size() != 4)
            fatal("usage: node <i> cpus <id>[,<id>...]");
        node.cpus = parseCpuList(tokens[3]);
        return "node cpus set (" + std::to_string(node.cpus.size()) +
               " processors)";
    }
    if (sub == "protocol") {
        if (tokens.size() != 4)
            fatal("usage: node <i> protocol <name>");
        node.protocol = protocol::makeBuiltinTable(tokens[3]);
        return "node protocol set to " + node.protocol.name();
    }
    if (sub == "protocol-file") {
        if (tokens.size() != 4)
            fatal("usage: node <i> protocol-file <path>");
        node.protocol = protocol::loadMapFile(tokens[3]);
        return "node protocol loaded: " + node.protocol.name();
    }
    if (sub == "machine") {
        if (tokens.size() != 4)
            fatal("usage: node <i> machine <m>");
        node.targetMachine = static_cast<unsigned>(
            parseUnsigned(tokens[3], "target machine", maxUnsigned));
        return "node target machine set";
    }
    fatal("unknown node subcommand '", sub, "'");
}

std::string
Console::handleBuffer(const Tokens &tokens)
{
    BoardConfig &staged = requireStaged(tokens);
    if (tokens.size() != 2)
        fatal("usage: buffer <entries>");
    staged.bufferEntries = parseUnsigned(tokens[1], "buffer depth");
    return "buffer depth set";
}

std::string
Console::handleThroughput(const Tokens &tokens)
{
    BoardConfig &staged = requireStaged(tokens);
    if (tokens.size() != 2)
        fatal("usage: throughput <percent>");
    staged.sdramThroughputPercent = static_cast<unsigned>(
        parseUnsigned(tokens[1], "throughput percent", maxUnsigned));
    return "SDRAM throughput set";
}

std::string
Console::handleCapture(const Tokens &tokens)
{
    BoardConfig &staged = requireStaged(tokens);
    if (tokens.size() != 2)
        fatal("usage: capture <records>");
    staged.traceCapture = true;
    staged.traceCaptureRecords =
        parseUnsigned(tokens[1], "capture records");
    return "trace capture armed";
}

std::string
Console::handleInit(const Tokens &tokens)
{
    requireStaged(tokens);
    staged_.validate();
    plugIn(std::make_unique<MemoriesBoard>(staged_));
    return "board initialized: " + std::to_string(board_->numNodes()) +
           " node(s) attached";
}

void
Console::plugIn(std::unique_ptr<MemoriesBoard> board)
{
    board_ = std::move(board);
    board_->plugInto(bus_);
    if (recorder_)
        board_->attachFlightRecorder(*recorder_);
}

void
Console::initFrom(const std::vector<std::string> &lines,
                  const std::function<void(MemoriesBoard &)> &load)
{
    if (board_)
        fatal("the board is already initialized");
    const BoardConfig staged = staged_;
    const std::size_t recorded = configLines_.size();
    try {
        for (const std::string &line : lines) {
            std::string_view rest = line;
            const auto it = commands_.find(nextWord(rest));
            if (it == commands_.end() || !it->second.configures)
                fatal("'", line, "' is not a configuration line");
            const std::string reply = execute(line);
            if (reply.rfind("error:", 0) == 0)
                fatal("config replay of '", line, "' failed: ", reply);
        }
        staged_.validate();
        auto board = std::make_unique<MemoriesBoard>(staged_);
        load(*board);
        plugIn(std::move(board));
    } catch (...) {
        staged_ = staged;
        configLines_.resize(recorded);
        throw;
    }
}

std::string
Console::handleStats(const Tokens &tokens)
{
    return requireBoard(tokens).dumpStats();
}

std::string
Console::handleCounters(const Tokens &tokens)
{
    return requireBoard(tokens).dumpCounters();
}

std::string
Console::handleClear(const Tokens &tokens)
{
    requireBoard(tokens).clearCounters();
    return "counters cleared";
}

std::string
Console::handleReset(const Tokens &tokens)
{
    requireBoard(tokens).reset();
    return "board reset";
}

std::string
Console::handleDumpTrace(const Tokens &tokens)
{
    if (tokens.size() != 2)
        fatal("usage: dump-trace <path>");
    auto &board = requireBoard(tokens);
    auto *capture = board.captureBuffer();
    if (!capture)
        fatal("trace capture was not armed before init");
    capture->dumpToFile(tokens[1]);
    std::string reply = "wrote " + std::to_string(capture->size()) +
                        " records to " + tokens[1];
    if (capture->dropped() > 0) {
        reply += " (LOSSY: " + std::to_string(capture->dropped()) +
                 " references dropped after the buffer filled)";
    }
    return reply;
}

std::string
Console::handleCkpt(const Tokens &tokens)
{
    // save-state <path> and load-state <path> are ckpt save|load.
    const std::string &cmd = tokens[0];
    if (cmd != "ckpt") {
        if (tokens.size() != 2)
            fatal("usage: ", cmd, " <path>");
        if (cmd == "save-state") {
            requireBoard(tokens).saveState(tokens[1]);
            return "board state saved to " + tokens[1];
        }
        requireBoard(tokens).loadState(tokens[1]);
        return "board state restored from " + tokens[1];
    }
    if (tokens.size() < 2)
        fatal("usage: ckpt <save|load|info> <path>");
    const std::string &sub = tokens[1];
    if (sub == "save") {
        if (tokens.size() != 3)
            fatal("usage: ckpt save <path>");
        requireBoard(tokens).saveState(tokens[2]);
        return "checkpoint saved to " + tokens[2];
    }
    if (sub == "load") {
        if (tokens.size() != 3)
            fatal("usage: ckpt load <path>");
        requireBoard(tokens).loadState(tokens[2]);
        return "checkpoint restored from " + tokens[2];
    }
    if (sub == "info") {
        if (tokens.size() != 3)
            fatal("usage: ckpt info <path>");
        return ckpt::CheckpointImage::fromFile(tokens[2]).describe();
    }
    fatal("unknown ckpt subcommand '", sub, "'");
}

std::string
Console::handleSaveProtocol(const Tokens &tokens)
{
    if (tokens.size() != 3)
        fatal("usage: save-protocol <node> <path>");
    const std::uint64_t index = parseUnsigned(tokens[1], "node index");
    const std::size_t nodes =
        board_ ? board_->numNodes() : staged_.nodes.size();
    if (index >= nodes)
        fatal("node index ", index, " out of range");
    const protocol::ProtocolTable &table =
        board_ ? board_->node(index).config().protocol
               : staged_.nodes[index].protocol;
    const std::string text = table.toMapText();
    ckpt::atomicWriteFile(tokens[2], text.data(), text.size());
    return "saved protocol " + table.name() + " to " + tokens[2];
}

std::string
Console::handleExportCsv(const Tokens &tokens)
{
    if (tokens.size() != 2)
        fatal("usage: export-csv <path>");
    const std::string csv =
        BoardReport::capture(requireBoard(tokens)).toCsv();
    ckpt::atomicWriteFile(tokens[1], csv.data(), csv.size());
    return "exported statistics to " + tokens[1];
}

std::string
Console::handleMonitor(const Tokens &tokens)
{
    auto &board = requireBoard(tokens);
    if (tokens.size() == 1 || tokens[1] == "show") {
        if (!monitor_)
            fatal("no monitor session; use: monitor start "
                  "<cycles> [jsonl-path]");
        if (monitor_->latest.empty())
            return "no window closed yet (monitoring every " +
                   std::to_string(monitor_->sampler.windowCycles()) +
                   " bus cycles)";
        return monitor_->latest;
    }
    if (tokens[1] == "start") {
        if (tokens.size() < 3 || tokens.size() > 4)
            fatal("usage: monitor start <cycles> [jsonl-path]");
        if (monitor_)
            fatal("monitor already running; 'monitor stop' first");
        const Cycle window = parseUnsigned(tokens[2], "monitor window");
        auto mon = std::make_unique<ConsoleMonitor>(window);
        ConsoleMonitor *raw = mon.get();
        if (tokens.size() == 4) {
            // Opened now, so a bad path is this line's error and
            // nothing is attached.
            mon->jsonl.open(tokens[3], std::ios::trunc);
            if (!mon->jsonl)
                fatal("cannot create telemetry file '", tokens[3], "'");
            mon->sampler.addExporter([raw](const telemetry::WindowRecord &w) {
                raw->jsonl << telemetry::jsonLine(w);
            });
        }
        mon->sampler.addExporter([raw](const telemetry::WindowRecord &w) {
            raw->latest = monitorView(w);
        });
        board.attachTelemetry(mon->sampler);
        monitor_ = std::move(mon);
        // Attach last: registers the bus's own sources and makes
        // the bus clock the sampler from here on. The session may
        // already be deep into bus time, so skip the sampler ahead
        // rather than emitting every empty window since cycle 0.
        bus_.attachSampler(monitor_->sampler);
        monitor_->sampler.resync(bus_.now());
        return "monitoring every " + tokens[2] + " bus cycles" +
               (tokens.size() == 4 ? " -> " + tokens[3] : "");
    }
    if (tokens[1] == "stop") {
        if (!monitor_)
            fatal("no monitor session to stop");
        stopMonitor();
        return "monitor stopped";
    }
    fatal("unknown monitor subcommand '", tokens[1], "'");
}

std::string
Console::handleScript(const Tokens &tokens)
{
    if (tokens.size() != 2)
        fatal("usage: script <path>");
    const std::vector<std::uint8_t> bytes =
        ckpt::readFileBytes(tokens[1], "script");
    std::string output;
    std::istringstream lines(std::string(bytes.begin(), bytes.end()));
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const std::string reply = execute(line);
        output += "> " + line + "\n";
        if (!reply.empty())
            output += reply + "\n";
        if (reply.rfind("error:", 0) == 0)
            break; // stop the script at the first error
    }
    return output;
}

std::string
Console::handleShutdown(const Tokens &tokens)
{
    auto &board = requireBoard(tokens);
    stopMonitor();  // its sampler reads this board's counters
    stopProf();     // the profiler is attached to this board
    disarmFaults(); // the injector is attached to this board
    board.unplug(bus_);
    board_.reset();
    return "board detached";
}

std::string
Console::handleHelp(const Tokens &)
{
    std::string text = "commands:";
    for (const auto &[name, command] : commands_)
        text += " " + name;
    return text;
}

std::string
Console::handleTrace(const Tokens &tokens)
{
    if (tokens.size() < 2)
        fatal("usage: trace <start|status|show|mark|dump|chrome|"
              "autodump|stop> ...");
    const std::string &sub = tokens[1];

    auto require_recorder = [&]() -> trace::FlightRecorder & {
        if (!recorder_)
            fatal("no flight recorder; use: trace start [events]");
        return *recorder_;
    };

    if (sub == "start") {
        if (tokens.size() > 3)
            fatal("usage: trace start [events]");
        if (recorder_)
            fatal("flight recorder already running; 'trace stop' first");
        std::size_t capacity = std::size_t{1} << 16;
        if (tokens.size() == 3)
            capacity = parseUnsigned(tokens[2], "event count",
                                     trace::FlightRecorder::maxCapacity);
        recorder_ = std::make_unique<trace::FlightRecorder>(capacity);
        bus_.attachFlightRecorder(*recorder_);
        if (board_)
            board_->attachFlightRecorder(*recorder_);
        return "flight recorder attached (" +
               std::to_string(recorder_->capacity()) + " events)";
    }
    if (sub == "stop") {
        require_recorder();
        stopTrace();
        return "flight recorder detached";
    }
    if (sub == "status") {
        auto &rec = require_recorder();
        std::ostringstream os;
        os << "recorded " << rec.recorded() << " retained " << rec.size()
           << "/" << rec.capacity() << " overwritten "
           << rec.overwritten() << " anomalies " << rec.anomalies();
        if (autodump_.armed) {
            os << " autodumps written " << autodump_.written
               << " skipped " << autodump_.skipped << " failed "
               << autodump_.failed;
        }
        return os.str();
    }
    if (sub == "show") {
        auto &rec = require_recorder();
        std::size_t n = 16;
        if (tokens.size() == 3)
            n = parseUnsigned(tokens[2], "event count");
        const auto events = rec.snapshot();
        const std::size_t first =
            events.size() > n ? events.size() - n : 0;
        std::ostringstream os;
        for (std::size_t i = first; i < events.size(); ++i) {
            os << events[i].describe();
            if (events[i].kind == trace::EventKind::Mark) {
                os << " \""
                   << rec.markLabel(
                          static_cast<std::size_t>(events[i].addr))
                   << "\"";
            }
            os << "\n";
        }
        return os.str();
    }
    if (sub == "mark") {
        if (tokens.size() < 3)
            fatal("usage: trace mark <label...>");
        auto &rec = require_recorder();
        std::string label = tokens[2];
        for (std::size_t i = 3; i < tokens.size(); ++i)
            label += " " + tokens[i];
        rec.mark(label, bus_.now());
        return "marked '" + label + "' at cycle " +
               std::to_string(bus_.now());
    }
    if (sub == "dump") {
        if (tokens.size() != 3)
            fatal("usage: trace dump <path>");
        auto &rec = require_recorder();
        const auto events = rec.snapshot();
        trace::writeLifecycleDump(tokens[2], events);
        return "wrote " + std::to_string(events.size()) +
               " lifecycle events to " + tokens[2] + " (" +
               std::to_string(rec.overwritten()) +
               " older events overwritten)";
    }
    if (sub == "chrome") {
        if (tokens.size() != 3)
            fatal("usage: trace chrome <path>");
        auto &rec = require_recorder();
        const auto events = rec.snapshot();
        trace::writeChromeTraceFile(events, tokens[2], &rec);
        return "wrote " + std::to_string(events.size()) +
               " lifecycle events as Chrome trace JSON to " + tokens[2];
    }
    if (sub == "autodump") {
        if (tokens.size() != 3)
            fatal("usage: trace autodump <path>");
        auto &rec = require_recorder();
        ckpt::requireWritableDir(tokens[2]);
        autodump_ = {};
        autodump_.armed = true;
        // A dump rewrites the whole ring and syncs it, so a storm of
        // anomalies must not each pay one: after the first, dump again
        // only once half a ring of events is new since the last try.
        // The hook runs inside board admission (and Bus6xx::issue), so
        // a dump that fails is counted, never thrown.
        rec.onAnomaly([this, path = tokens[2]](
                          const trace::FlightRecorder &r,
                          const trace::LifecycleEvent &) {
            if (autodump_.written + autodump_.failed > 0 &&
                r.recorded() - autodump_.recordedAtLast < r.capacity() / 2) {
                ++autodump_.skipped;
                return;
            }
            autodump_.recordedAtLast = r.recorded();
            try {
                trace::writeLifecycleDump(path, r.snapshot());
                ++autodump_.written;
            } catch (const FatalError &) {
                ++autodump_.failed;
            }
        });
        return "flight recorder will dump to " + tokens[2] +
               " at an anomaly once half a ring is new";
    }
    fatal("unknown trace subcommand '", sub, "'");
}

std::string
Console::handleProf(const Tokens &tokens)
{
    auto require_profiler = [&]() -> profile::Profiler & {
        if (!profiler_)
            fatal("no profiler; use: prof start");
        return *profiler_;
    };

    if (tokens.size() == 1)
        return require_profiler().describe();
    const std::string &sub = tokens[1];
    if (tokens.size() != 2)
        fatal("usage: prof <start|show|stop>");

    if (sub == "start") {
        if (profiler_)
            fatal("profiler already running; 'prof stop' first");
        if (!board_)
            fatal("no board; run init first");
        profiler_ = std::make_unique<profile::Profiler>();
        board_->attachProfiler(*profiler_);
        return "profiler attached";
    }
    if (sub == "stop") {
        require_profiler();
        stopProf();
        return "profiler detached";
    }
    if (sub == "show")
        return require_profiler().describe();
    fatal("unknown prof subcommand '", sub, "'");
}

std::string
Console::handleFault(const Tokens &tokens)
{
    if (tokens.size() < 2)
        fatal("usage: fault <load|arm|status|disarm> ...");
    const std::string &sub = tokens[1];

    if (sub == "load") {
        if (tokens.size() != 3)
            fatal("usage: fault load <path>");
        if (injector_)
            fatal("fault injector armed; 'fault disarm' first");
        plan_ = fault::FaultPlan::load(tokens[2]);
        planLoaded_ = true;
        return "fault plan loaded (" + std::to_string(plan_.size()) +
               " spec" + (plan_.size() == 1 ? "" : "s") + ")";
    }
    if (sub == "arm") {
        if (tokens.size() > 3)
            fatal("usage: fault arm [seed]");
        if (!board_)
            fatal("'fault arm' requires an initialized board");
        if (injector_)
            fatal("fault injector already armed; 'fault disarm' first");
        if (!planLoaded_)
            fatal("no fault plan; use: fault load <path>");
        std::uint64_t seed = 1;
        if (tokens.size() == 3)
            seed = parseUnsigned(tokens[2], "seed");
        injector_ = std::make_unique<fault::FaultInjector>(plan_, seed);
        board_->attachFaultInjector(*injector_);
        // On the live bus the injector is one more snooper, so
        // SpuriousRetry specs really retry host tenures.
        bus_.attach(injector_.get());
        return "fault injector armed (" + std::to_string(plan_.size()) +
               " spec" + (plan_.size() == 1 ? "" : "s") + ", seed " +
               std::to_string(seed) + ")";
    }
    if (sub == "status") {
        if (tokens.size() != 2)
            fatal("usage: fault status");
        if (injector_)
            return injector_->dumpStats();
        if (planLoaded_) {
            return "fault plan loaded (" + std::to_string(plan_.size()) +
                   " specs), not armed\n" + plan_.describe();
        }
        return "no fault plan loaded";
    }
    if (sub == "disarm") {
        if (tokens.size() != 2)
            fatal("usage: fault disarm");
        if (!injector_)
            fatal("no fault injector to disarm");
        disarmFaults();
        return "fault injector disarmed";
    }
    fatal("unknown fault subcommand '", sub, "'");
}

std::string
Console::handleHealth(const Tokens &tokens)
{
    if (tokens.size() == 1 ||
        (tokens.size() == 2 && tokens[1] == "status")) {
        if (board_) {
            const auto &g = board_->globalCounters();
            std::ostringstream os;
            os << "health " << board_->health().describe()
               << "\nfault-dropped "
               << g.valueByName("global.tenures.fault_dropped")
               << " sampled-out "
               << g.valueByName("global.tenures.sampled_out")
               << " shed " << g.valueByName("global.tenures.shed")
               << " quarantined "
               << g.valueByName("global.tenures.quarantined")
               << " lost-inflight "
               << g.valueByName("global.tenures.lost_inflight")
               << " transitions "
               << g.valueByName("global.health.transitions");
            return os.str();
        }
        return "staged health policy: " +
               fault::HealthMonitor(staged_.health).describe();
    }
    if (board_)
        fatal("health policy can only be changed before init");
    const std::string &key = tokens[1];
    if (key == "on" || key == "off") {
        if (tokens.size() != 2)
            fatal("usage: health on|off");
        staged_.health.enabled = (key == "on");
        return std::string("health state machine ") +
               (staged_.health.enabled ? "enabled" : "disabled");
    }
    if (tokens.size() != 3)
        fatal("usage: health <key> <value>");
    static constexpr struct
    {
        std::string_view key;
        unsigned fault::HealthPolicy::*field;
    } knobs[] = {
        {"degrade-occupancy", &fault::HealthPolicy::degradeOccupancyPercent},
        {"degrade-window", &fault::HealthPolicy::degradeWindow},
        {"recover-window", &fault::HealthPolicy::recoverWindow},
        {"sampling-shift", &fault::HealthPolicy::degradedSamplingShift},
        {"backoff-limit", &fault::HealthPolicy::backoffLimit},
        {"quarantine-storms", &fault::HealthPolicy::quarantineStorms},
    };
    for (const auto &knob : knobs) {
        if (knob.key != key)
            continue;
        staged_.health.*knob.field = static_cast<unsigned>(
            parseUnsigned(tokens[2], "health " + key, maxUnsigned));
        return "health " + key + " set to " + tokens[2];
    }
    fatal("unknown health key '", key, "'");
}

} // namespace memories::ies
