/**
 * @file
 * The console interface: what the paper's Windows PC + AMCC parallel
 * port card does — power-up initialization, cache parameter setting and
 * statistics extraction — as a text-command front end over the board.
 *
 * Commands (one per call, tokens space-separated):
 *
 *   node <i> cache <size> <assoc> <line> [LRU|FIFO|Random]
 *   node <i> cpus <id>[,<id>...]
 *   node <i> protocol <MSI|MESI|MOESI>
 *   node <i> protocol-file <path>
 *   node <i> machine <m>
 *   buffer <entries>
 *   throughput <percent>
 *   capture <records>
 *   init                     -- build the board and plug into the bus
 *   stats                    -- human-readable statistics
 *   counters                 -- raw 40-bit counter dump
 *   clear                    -- zero all counters
 *   reset                    -- cold-start directories + counters
 *   dump-trace <path>        -- write the capture buffer to disk
 *   save-state <path>        -- write the board as an IESCKPT file
 *   load-state <path>        -- restore the board from one
 *   ckpt save|load <path>    -- the same
 *   ckpt info <path>         -- describe an IESCKPT file
 *   save-protocol <i> <path> -- write node i's table as a map file
 *   export-csv <path>        -- write per-node statistics as CSV
 *   monitor start <cycles> [jsonl-path]
 *                            -- begin windowed telemetry sampling
 *   monitor                  -- live view of the last closed window
 *   monitor stop             -- finish sampling (closes the file)
 *   trace start [events]     -- attach a flight recorder (ring size)
 *   trace status             -- recorded/retained/anomaly/dump counts
 *   trace show [n]           -- describe the last n retained events
 *   trace mark <label...>    -- drop an operator annotation in the ring
 *   trace dump <path>        -- write retained events (IESCKPT dump)
 *   trace chrome <path>      -- write retained events as Chrome JSON
 *   trace autodump <path>    -- dump automatically at an anomaly once
 *                               half a ring has passed since the last
 *                               (refused unless <path>'s directory is
 *                               writable; a failed dump is counted)
 *   trace stop               -- detach and discard the recorder
 *   prof start               -- attach an IESPROF profiler
 *   prof [show]              -- stage attribution report
 *   prof stop                -- detach and discard the profiler
 *   fault load <path>        -- load a fault plan (see fault/faultplan.hh)
 *   fault arm [seed]         -- build the injector and attach it
 *   fault status             -- plan and per-kind injection counts
 *   fault disarm             -- detach and discard the injector
 *   health on|off            -- enable the degradation state machine
 *   health <key> <n>         -- tune the staged policy (degrade-occupancy,
 *                               degrade-window, recover-window,
 *                               sampling-shift, backoff-limit,
 *                               quarantine-storms)
 *   health [status]          -- current state and degradation counters
 *   script <path>            -- execute commands from a file
 *   shutdown                 -- unplug from the bus
 *
 *   help                     -- list every command family
 *
 * Every family, builtin or registered, lives in one command table:
 * one lookup dispatches a line and `help` lists the table. Libraries
 * layered above the board register further families with
 * registerCommand(); campaign::registerConsoleCommands adds
 * `campaign start|resume|status` (see src/campaign/console.hh).
 *
 * Tokens are separated by runs of the six C-locale whitespace
 * characters (space, \t, \n, \v, \f, \r), so a tab-separated or
 * "\r\n"-terminated line means the same as a single-spaced one.
 *
 * Configuration commands are only legal before init; fatal() errors
 * come back as "error: ..." strings, like a console status line. The
 * console records the configuration lines it accepted before init
 * (configLines()), so a session can replay them to restage the board.
 */

#ifndef MEMORIES_IES_CONSOLE_HH
#define MEMORIES_IES_CONSOLE_HH

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bus/bus6xx.hh"
#include "fault/faultplan.hh"
#include "fault/injector.hh"
#include "ies/board.hh"
#include "trace/lifecycle.hh"

namespace memories::ies
{

/** True for a token separator: C-locale isspace()'s six characters. */
inline bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
           c == '\r';
}

/**
 * Pop the next token off the front of @p rest, without copying: the
 * returned view points into @p rest's text. Empty once no token is
 * left.
 */
inline std::string_view
nextWord(std::string_view &rest)
{
    std::size_t begin = 0;
    while (begin < rest.size() && isSpace(rest[begin]))
        ++begin;
    std::size_t end = begin;
    while (end < rest.size() && !isSpace(rest[end]))
        ++end;
    const std::string_view word = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return word;
}

/** Every token of @p line, in order (the builtin commands' view). */
std::vector<std::string> splitWords(std::string_view line);

/** Monitor-session state (sampler + live view); see console.cc. */
struct ConsoleMonitor;

/** Text-command console controlling one board on one host bus. */
class Console
{
  public:
    /** @param bus Host bus the board will be plugged into at init. */
    explicit Console(bus::Bus6xx &bus);

    ~Console();

    /** Execute one command line; returns the console's reply text. */
    std::string execute(std::string_view command_line);

    /** True once init has built and attached the board. */
    bool initialized() const { return board_ != nullptr; }

    /** The live board (nullptr before init). */
    MemoriesBoard *board() { return board_.get(); }

    /** The live flight recorder (nullptr unless `trace start` ran). */
    trace::FlightRecorder *flightRecorder() { return recorder_.get(); }

    /** The live fault injector (nullptr unless `fault arm` ran). */
    fault::FaultInjector *faultInjector() { return injector_.get(); }

    /** The live profiler (nullptr unless `prof start` ran). */
    profile::Profiler *profiler() { return profiler_.get(); }

    /** True while a `monitor start` telemetry session is live. */
    bool monitoring() const { return monitor_ != nullptr; }

    /**
     * Handler for an extension command family. Invoked with the whole
     * request line, family name included, so a bulk command can parse
     * it in place; others take splitWords(line). The view is valid for
     * the call only. fatal() inside a handler comes back as
     * "error: ..." text like any built-in.
     */
    using CommandHandler =
        std::function<std::string(Console &, std::string_view line)>;

    /**
     * Register @p handler for top-level command @p name, in the table
     * that holds the builtins. Libraries that sit *above* the board
     * (the IESCAMP campaign engine) plug their command families in
     * here instead of the console linking them — the console stays
     * the bottom of the dependency stack. Re-registering a name
     * replaces the old handler; a builtin name keeps its builtin
     * handler (builtins cannot be shadowed).
     */
    void registerCommand(const std::string &name,
                         CommandHandler handler);

    /**
     * Run @p lines (configuration lines, as configLines() records
     * them) and build the board they stage, hand it to @p load, and
     * only then plug it in as `init` would. All or nothing: when a
     * line is rejected or is not a configuration line, or @p load
     * throws, the error propagates and the console is left as it was,
     * staged config and recorded lines included. Session resume
     * restores a suspended board this way.
     */
    void initFrom(const std::vector<std::string> &lines,
                  const std::function<void(MemoriesBoard &)> &load);

    /**
     * The configuration lines accepted before init, in order, as
     * typed: every successful `node`, `buffer`, `throughput`,
     * `capture` and `health` line except a status query, including
     * the lines a `script` ran. Replaying them on a fresh console
     * stages the same board (session suspend/resume does).
     */
    const std::vector<std::string> &configLines() const
    {
        return configLines_;
    }

  private:
    using Tokens = std::vector<std::string>;

    /** One top-level command family in the table. */
    struct Command
    {
        CommandHandler handler;
        bool builtin = false;
        /** A successful line before init stages the board. */
        bool configures = false;
    };

    std::string handleNode(const Tokens &tokens);
    std::string handleBuffer(const Tokens &tokens);
    std::string handleThroughput(const Tokens &tokens);
    std::string handleCapture(const Tokens &tokens);
    std::string handleInit(const Tokens &tokens);
    std::string handleStats(const Tokens &tokens);
    std::string handleCounters(const Tokens &tokens);
    std::string handleClear(const Tokens &tokens);
    std::string handleReset(const Tokens &tokens);
    std::string handleDumpTrace(const Tokens &tokens);
    std::string handleCkpt(const Tokens &tokens);
    std::string handleSaveProtocol(const Tokens &tokens);
    std::string handleExportCsv(const Tokens &tokens);
    std::string handleMonitor(const Tokens &tokens);
    std::string handleTrace(const Tokens &tokens);
    std::string handleProf(const Tokens &tokens);
    std::string handleFault(const Tokens &tokens);
    std::string handleHealth(const Tokens &tokens);
    std::string handleScript(const Tokens &tokens);
    std::string handleShutdown(const Tokens &tokens);
    std::string handleHelp(const Tokens &tokens);

    /** Plug @p board into the bus as the live board (init's end). */
    void plugIn(std::unique_ptr<MemoriesBoard> board);

    NodeConfig &nodeFor(std::size_t index);
    /** The staged config; fatal() naming tokens[0] after init. */
    BoardConfig &requireStaged(const Tokens &tokens);
    /** The live board; fatal() naming tokens[0] before init. */
    MemoriesBoard &requireBoard(const Tokens &tokens);

    void stopMonitor();
    void stopTrace();
    void stopProf();
    void disarmFaults();

    bus::Bus6xx &bus_;
    BoardConfig staged_;
    std::unique_ptr<MemoriesBoard> board_;
    std::unique_ptr<ConsoleMonitor> monitor_;
    std::unique_ptr<trace::FlightRecorder> recorder_;
    /** `trace autodump` tally since it was armed; `trace status`. */
    struct AutoDump
    {
        bool armed = false;
        std::uint64_t written = 0;
        std::uint64_t skipped = 0;
        /** Dumps that threw (say, the directory went away). */
        std::uint64_t failed = 0;
        /** recorder_->recorded() when the last dump was tried. */
        std::uint64_t recordedAtLast = 0;
    } autodump_;
    std::unique_ptr<profile::Profiler> profiler_;
    fault::FaultPlan plan_;
    bool planLoaded_ = false;
    std::unique_ptr<fault::FaultInjector> injector_;
    std::map<std::string, Command, std::less<>> commands_;
    std::vector<std::string> configLines_;
};

} // namespace memories::ies

#endif // MEMORIES_IES_CONSOLE_HH
