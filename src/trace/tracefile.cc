#include "trace/tracefile.hh"

#include <cstring>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"

namespace memories::trace
{

namespace
{

constexpr std::size_t ioChunkRecords = 1 << 16;

/**
 * fatal() unless @p file, positioned just past its header, holds the
 * @p count records the header declares. A longer file stays readable:
 * the writer appends records before it rewrites the header.
 */
void
requireDeclared(std::FILE *file, std::uint64_t count,
                const std::string &what)
{
    const long start = std::ftell(file);
    if (start < 0 || std::fseek(file, 0, SEEK_END) != 0)
        fatal("cannot size ", what);
    const long end = std::ftell(file);
    if (end < start || std::fseek(file, start, SEEK_SET) != 0)
        fatal("cannot size ", what);
    const std::uint64_t held =
        static_cast<std::uint64_t>(end - start) / sizeof(std::uint64_t);
    if (held < count) {
        fatal(what, " is truncated: its header declares ", count,
              " records but it holds ", held);
    }
}

} // namespace

TraceWriter::TraceWriter(const std::string &path)
    : path_(path)
{
    file_.reset(std::fopen(path.c_str(), "wb"));
    if (!file_)
        fatal("cannot create trace file '", path, "'");
    buffer_.reserve(ioChunkRecords);
    writeHeader();
}

TraceWriter::~TraceWriter()
{
    // Best effort: flush() can't report errors from a destructor, but the
    // explicit flush() API is there for callers who care.
    try {
        flush();
    } catch (const FatalError &) {
        // swallow: destruction must not throw
    }
}

void
TraceWriter::writeHeader()
{
    std::uint64_t header[4] = {traceMagic, traceVersion, count_,
                               dropped_};
    if (std::fseek(file_.get(), 0, SEEK_SET) != 0 ||
        std::fwrite(header, sizeof(header), 1, file_.get()) != 1) {
        fatal("failed writing trace header to '", path_, "'");
    }
}

void
TraceWriter::append(const bus::BusTransaction &txn)
{
    appendRecord(BusRecord::pack(txn, prevCycle_));
    prevCycle_ = txn.cycle;
}

void
TraceWriter::appendRecord(BusRecord rec)
{
    buffer_.push_back(rec.raw);
    ++count_;
    if (buffer_.size() >= ioChunkRecords)
        flush();
}

void
TraceWriter::flush()
{
    if (!buffer_.empty()) {
        if (std::fseek(file_.get(), 0, SEEK_END) != 0 ||
            std::fwrite(buffer_.data(), sizeof(std::uint64_t),
                        buffer_.size(), file_.get()) != buffer_.size()) {
            fatal("failed writing trace records to '", path_, "'");
        }
        buffer_.clear();
    }
    writeHeader();
    std::fflush(file_.get());
}

TraceReader::TraceReader(const std::string &path)
{
    file_.reset(std::fopen(path.c_str(), "rb"));
    if (!file_)
        fatal("cannot open trace file '", path, "'");

    std::uint64_t header[3];
    if (std::fread(header, sizeof(header), 1, file_.get()) != 1)
        fatal("trace file '", path, "' is truncated");
    if (header[0] != traceMagic)
        fatal("trace file '", path, "' has bad magic");
    if (header[1] != 1 && header[1] != traceVersion)
        fatal("trace file '", path, "' has unsupported version ",
              header[1]);
    count_ = header[2];
    // v2 appends the capture-time dropped count to the header.
    if (header[1] >= 2) {
        headerWords_ = 4;
        if (std::fread(&dropped_, sizeof(dropped_), 1, file_.get()) != 1)
            fatal("trace file '", path, "' is truncated");
    }
    requireDeclared(file_.get(), count_, "trace file '" + path + "'");
    buffer_.reserve(ioChunkRecords);
}

TraceReader::~TraceReader() = default;

void
TraceReader::fillBuffer()
{
    buffer_.resize(ioChunkRecords);
    std::size_t got = std::fread(buffer_.data(), sizeof(std::uint64_t),
                                 buffer_.size(), file_.get());
    buffer_.resize(got);
    bufferPos_ = 0;
}

bool
TraceReader::next(BusRecord &rec)
{
    if (readSoFar_ >= count_)
        return false;
    if (bufferPos_ >= buffer_.size()) {
        fillBuffer();
        if (buffer_.empty())
            return false;
    }
    rec = BusRecord(buffer_[bufferPos_++]);
    ++readSoFar_;
    return true;
}

bool
TraceReader::next(bus::BusTransaction &txn)
{
    BusRecord rec;
    if (!next(rec))
        return false;
    txn = rec.unpack(prevCycle_);
    prevCycle_ = txn.cycle;
    return true;
}

void
TraceReader::rewind()
{
    if (std::fseek(file_.get(),
                   static_cast<long>(headerWords_ *
                                     sizeof(std::uint64_t)),
                   SEEK_SET) != 0)
        fatal("failed to rewind trace file");
    readSoFar_ = 0;
    prevCycle_ = 0;
    buffer_.clear();
    bufferPos_ = 0;
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
