#include "service/stream.hh"

#include <algorithm>
#include <sstream>

#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "service/wire.hh"
#include "trace/tracefile.hh"

namespace memories::service
{

namespace
{

ies::MemoriesBoard &
requireBoard(ies::Console &console, const char *family)
{
    if (!console.initialized())
        fatal(family, " requires an initialized board; run init first");
    return *console.board();
}

} // namespace

ies::MemoriesBoard &
StreamIngest::addTwin(const ies::BoardConfig &config, std::uint64_t seed,
                      const std::string &label)
{
    twins_.push_back(
        Twin{label, seed, ies::MemoriesBoard::make(config, seed)});
    return *twins_.back().board;
}

void
StreamIngest::saveState(ckpt::Sink &sink) const
{
    sink.u8(paced_ ? 1 : 0);
    sink.u64(prevCycle_);
    sink.u64(refsOffered_);
    sink.u64(refsAttempted_);
    sink.u64(refsAccepted_);
    sink.u64(backpressure_);
    sink.u64(overflowDrops_);
    sink.u64(feedLines_);
    sink.u64(resyncs_);
}

void
StreamIngest::loadState(ckpt::Source &source)
{
    const std::uint8_t paced = source.u8();
    if (paced > 1)
        fatal(source.context(), ": pace flag must be 0 or 1");
    paced_ = paced != 0;
    prevCycle_ = source.u64();
    refsOffered_ = source.u64();
    refsAttempted_ = source.u64();
    refsAccepted_ = source.u64();
    backpressure_ = source.u64();
    overflowDrops_ = source.u64();
    feedLines_ = source.u64();
    resyncs_ = source.u64();
}

std::size_t
StreamIngest::feedAttempted(ies::Console &console,
                            const bus::BusTransaction *txns,
                            std::size_t count, std::string &notes)
{
    ies::MemoriesBoard &board = *console.board();
    const std::size_t accepted = board.feedBatch(txns, count);
    // Twin boards see the identical attempted sequence (the session's
    // fan-out); their own buffers decide what they keep.
    for (const Twin &twin : twins_)
        twin.board->feedBatch(txns, count);

    refsAttempted_ += count;
    refsAccepted_ += accepted;
    added_.accepted += accepted;
    overflowDrops_ += count - accepted;
    prevCycle_ = txns[count - 1].cycle;

    // Health ladder: a quarantined board is pulled back from the first
    // healthy same-fingerprint twin; with no twin the session is done.
    if (board.healthState() == fault::HealthState::Quarantined) {
        const std::string note = resyncFromTwin(board);
        if (note.empty()) {
            evictRequested_ = true;
            fatal("quarantined: no healthy twin to resync from; "
                  "session must be evicted");
        }
        notes += "\n" + note;
    }
    return accepted;
}

std::string
StreamIngest::resyncFromTwin(ies::MemoriesBoard &board)
{
    const std::uint64_t want = board.config().fingerprint();
    for (std::size_t i = 0; i < twins_.size(); ++i) {
        const ies::MemoriesBoard &twin = *twins_[i].board;
        if (twin.healthState() == fault::HealthState::Healthy &&
            twin.config().fingerprint() == want) {
            board.resyncFrom(twin);
            ++resyncs_;
            return "resynced from twin " + std::to_string(i) + " '" +
                   twins_[i].label + "'";
        }
    }
    return "";
}

std::string
StreamIngest::handleFeed(ies::Console &console, std::string_view line)
{
    ies::MemoriesBoard &board = requireBoard(console, "feed");

    // One pass over the words, straight from the request line: count
    // them all, and decode and unpack on the session's cycle chain
    // until the batch limit or the first bad one. The whole line is
    // rejected on any error, the limit check first.
    const FeedWords words = parseFeedLine(line, prevCycle_, maxBatch_, txns_);
    const std::size_t n = words.count;
    if (n == 0)
        fatal("usage: feed <hex16> [<hex16> ...]");
    if (n > maxBatch_)
        fatal("feed of ", n, " records exceeds the session batch limit ",
              maxBatch_);
    if (!words.bad.empty())
        fatal("bad record token '", words.bad, "' (", words.why, ")");

    ++feedLines_;
    refsOffered_ += n;
    added_.offered += n;

    // Admission: paced mode admits the longest prefix the board takes
    // with every record at its own cycle; raw mode attempts the whole
    // line exactly once (overflow drops and all).
    const std::size_t attempted =
        paced_ ? board.admissiblePrefix(txns_.data(), n) : n;
    if (attempted == 0) {
        ++backpressure_;
        ++added_.backpressure;
        return "fed 0 accepted 0 of " + std::to_string(n);
    }
    std::string notes;
    const std::size_t accepted =
        feedAttempted(console, txns_.data(), attempted, notes);
    return "fed " + std::to_string(attempted) + " accepted " +
           std::to_string(accepted) + " of " + std::to_string(n) + notes;
}

std::string
StreamIngest::handleDrain(ies::Console &console)
{
    ies::MemoriesBoard &board = requireBoard(console, "drain");
    board.drainAll();
    for (const Twin &twin : twins_)
        twin.board->drainAll();
    return "drained buffer " + std::to_string(board.bufferSize()) +
           " retired " + std::to_string(board.bufferRetired());
}

std::string
StreamIngest::replayFile(ies::Console &console, const std::string &path)
{
    requireBoard(console, "stream replay");
    const std::vector<bus::BusTransaction> stream =
        trace::readBusTrace(path).stream;
    std::uint64_t accepted = 0;
    std::string notes;
    for (std::size_t at = 0; at < stream.size(); at += maxBatch_) {
        const std::size_t n = std::min(maxBatch_, stream.size() - at);
        // A captured trace is already paced by its recorded
        // inter-arrival deltas, so replay always attempts each record
        // exactly once (raw semantics) — there is no client to
        // back-pressure.
        refsOffered_ += n;
        added_.offered += n;
        ++feedLines_;
        accepted += feedAttempted(console, stream.data() + at, n, notes);
    }
    const std::uint64_t replayed = stream.size();
    std::string reply = "replayed " + std::to_string(replayed) +
                        " accepted " + std::to_string(accepted) +
                        " dropped " + std::to_string(replayed - accepted);
    return reply + notes;
}

std::string
StreamIngest::handleStream(ies::Console &console,
                           const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "status") {
        std::ostringstream os;
        os << "pace " << (paced_ ? "on" : "off") << "\n"
           << "prev-cycle " << prevCycle_ << "\n"
           << "offered " << refsOffered_ << " attempted " << refsAttempted_
           << " accepted " << refsAccepted_ << "\n"
           << "backpressure " << backpressure_ << " overflow-drops "
           << overflowDrops_ << " feed-lines " << feedLines_
           << " resyncs " << resyncs_;
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "pace") {
        if (tokens.size() != 3 ||
            (tokens[2] != "on" && tokens[2] != "off"))
            fatal("usage: stream pace on|off");
        paced_ = tokens[2] == "on";
        return std::string("pace ") + (paced_ ? "on" : "off");
    }
    if (sub == "reset") {
        prevCycle_ = 0;
        refsOffered_ = refsAttempted_ = refsAccepted_ = 0;
        backpressure_ = overflowDrops_ = feedLines_ = resyncs_ = 0;
        return "stream reset";
    }
    if (sub == "replay") {
        if (tokens.size() != 3)
            fatal("usage: stream replay <path>");
        return replayFile(console, tokens[2]);
    }
    fatal("usage: stream [status|pace on|off|reset|replay <path>]");
}

std::string
StreamIngest::handleFleet(ies::Console &console,
                          const std::vector<std::string> &tokens)
{
    if (tokens.size() == 1 || tokens[1] == "list" ||
        tokens[1] == "status") {
        if (twins_.empty())
            return "fleet empty";
        std::ostringstream os;
        for (std::size_t i = 0; i < twins_.size(); ++i) {
            if (i)
                os << "\n";
            os << i << " '" << twins_[i].label << "' seed "
               << twins_[i].seed << " health "
               << fault::healthStateName(twins_[i].board->healthState());
        }
        return os.str();
    }
    const std::string &sub = tokens[1];
    if (sub == "add") {
        ies::MemoriesBoard &board = requireBoard(console, "fleet add");
        if (tokens.size() > 4)
            fatal("usage: fleet add [label] [seed]");
        const std::string index = std::to_string(twins_.size());
        const std::string label =
            tokens.size() >= 3 ? tokens[2] : "twin" + index;
        const std::uint64_t seed =
            tokens.size() == 4 ? parseUnsigned(tokens[3], "seed") : 1;
        addTwin(board.config(), seed, label);
        return "fleet board " + index + " '" + label + "' added";
    }
    if (sub == "counters" || sub == "stats") {
        if (tokens.size() != 3)
            fatal("usage: fleet ", sub, " <index>");
        const std::size_t i = parseUnsigned(tokens[2], "fleet index");
        if (i >= twins_.size())
            fatal("fleet index ", i, " out of range (", twins_.size(),
                  " boards)");
        return sub == "counters" ? twins_[i].board->dumpCounters()
                                 : twins_[i].board->dumpStats();
    }
    if (sub == "resync") {
        const std::string note =
            resyncFromTwin(requireBoard(console, "fleet resync"));
        if (note.empty())
            fatal("no healthy same-fingerprint twin to resync from");
        return note;
    }
    fatal("usage: fleet [add [label] [seed]|list|counters <i>|resync]");
}

void
StreamIngest::registerCommands(ies::Console &console)
{
    console.registerCommand(
        "feed", [this](ies::Console &c, std::string_view line) {
            return handleFeed(c, line);
        });
    console.registerCommand(
        "drain", [this](ies::Console &c, std::string_view) {
            return handleDrain(c);
        });
    console.registerCommand(
        "stream", [this](ies::Console &c, std::string_view line) {
            return handleStream(c, ies::splitWords(line));
        });
    console.registerCommand(
        "fleet", [this](ies::Console &c, std::string_view line) {
            return handleFleet(c, ies::splitWords(line));
        });
}

} // namespace memories::service
