#include "trace/tracefile.hh"

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"
#include "trace/record.hh"

namespace memories::trace
{

void
writeBusTrace(const std::string &path,
              const std::vector<bus::BusTransaction> &stream,
              std::uint64_t dropped_at_capture)
{
    ckpt::CheckpointWriter writer;
    ckpt::Sink &sink = writer.section(ckpt::secBusTrace);
    sink.u64(dropped_at_capture);
    sink.u64(stream.size());
    Cycle prev = 0;
    for (const bus::BusTransaction &txn : stream) {
        sink.u64(BusRecord::pack(txn, prev).raw);
        prev = txn.cycle;
    }
    writer.writeFile(path, 0);
}

BusTrace
readBusTrace(const std::string &path)
{
    const ckpt::CheckpointImage image = ckpt::CheckpointImage::fromBytes(
        ckpt::readFileBytes(path, "bus trace"),
        "bus trace '" + path + "'");
    ckpt::Source source = image.open(ckpt::secBusTrace);
    BusTrace trace;
    trace.droppedAtCapture = source.u64();
    const std::uint64_t count = source.u64();
    if (count != source.remaining() / 8 || source.remaining() % 8 != 0) {
        fatal(source.context(), ": declares ", count,
              " records but holds ", source.remaining(),
              " bytes of them");
    }
    trace.stream.reserve(static_cast<std::size_t>(count));
    Cycle prev = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const BusRecord rec(source.u64());
        if (!rec.hasKnownOp()) {
            fatal(source.context(), ": record ", i,
                  " has unknown bus command ",
                  static_cast<unsigned>(rec.op()));
        }
        trace.stream.push_back(rec.unpack(prev));
        prev = trace.stream.back().cycle;
    }
    return trace;
}

namespace
{

/** 40-byte packed lifecycle event: five little-endian 64-bit words. */
constexpr std::size_t lifecycleWords = 5;

void
packLifecycle(const LifecycleEvent &ev, std::uint64_t out[lifecycleWords])
{
    out[0] = ev.seq;
    out[1] = ev.cycle;
    out[2] = ev.addr;
    out[3] = static_cast<std::uint64_t>(ev.traceId) |
             (static_cast<std::uint64_t>(ev.kind) << 32) |
             (static_cast<std::uint64_t>(ev.board) << 40) |
             (static_cast<std::uint64_t>(ev.node) << 48) |
             (static_cast<std::uint64_t>(ev.cpu) << 56);
    out[4] = static_cast<std::uint64_t>(ev.op) |
             (static_cast<std::uint64_t>(ev.arg0) << 8) |
             (static_cast<std::uint64_t>(ev.arg1) << 16);
}

LifecycleEvent
unpackLifecycle(const std::uint64_t in[lifecycleWords])
{
    LifecycleEvent ev;
    ev.seq = in[0];
    ev.cycle = in[1];
    ev.addr = in[2];
    ev.traceId = static_cast<std::uint32_t>(in[3]);
    ev.kind = static_cast<EventKind>((in[3] >> 32) & 0xff);
    ev.board = static_cast<std::uint8_t>((in[3] >> 40) & 0xff);
    ev.node = static_cast<std::uint8_t>((in[3] >> 48) & 0xff);
    ev.cpu = static_cast<std::uint8_t>((in[3] >> 56) & 0xff);
    ev.op = static_cast<bus::BusOp>(in[4] & 0xff);
    ev.arg0 = static_cast<std::uint8_t>((in[4] >> 8) & 0xff);
    ev.arg1 = static_cast<std::uint8_t>((in[4] >> 16) & 0xff);
    return ev;
}

} // namespace

void
writeLifecycleDump(const std::string &path,
                   const std::vector<LifecycleEvent> &events)
{
    ckpt::CheckpointWriter writer;
    ckpt::Sink &sink = writer.section(ckpt::secLifecycle);
    sink.u64(events.size());
    std::uint64_t words[lifecycleWords];
    for (const LifecycleEvent &ev : events) {
        packLifecycle(ev, words);
        for (const std::uint64_t word : words)
            sink.u64(word);
    }
    writer.writeFile(path, 0);
}

std::vector<LifecycleEvent>
readLifecycleDump(const std::string &path)
{
    const ckpt::CheckpointImage image = ckpt::CheckpointImage::fromBytes(
        ckpt::readFileBytes(path, "lifecycle dump"),
        "lifecycle dump '" + path + "'");
    ckpt::Source source = image.open(ckpt::secLifecycle);
    const std::uint64_t count = source.u64();
    constexpr std::size_t eventBytes = lifecycleWords * 8;
    if (count != source.remaining() / eventBytes ||
        source.remaining() % eventBytes != 0) {
        fatal(source.context(), ": declares ", count,
              " events but holds ", source.remaining(), " bytes of them");
    }
    std::vector<LifecycleEvent> events;
    events.reserve(static_cast<std::size_t>(count));
    std::uint64_t words[lifecycleWords];
    for (std::uint64_t i = 0; i < count; ++i) {
        for (std::uint64_t &word : words)
            word = source.u64();
        events.push_back(unpackLifecycle(words));
    }
    return events;
}

} // namespace memories::trace
