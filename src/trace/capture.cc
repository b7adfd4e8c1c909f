#include "trace/capture.hh"

#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace memories::trace
{

CaptureBuffer::CaptureBuffer(std::uint64_t capacity_records)
    : capacity_(capacity_records)
{
    if (capacity_records == 0)
        fatal("capture buffer capacity must be nonzero");
    // Reserve lazily in chunks: a 1G-record reservation up front would
    // defeat small-memory test environments.
    records_.reserve(std::min<std::uint64_t>(capacity_records, 1 << 20));
}

bool
CaptureBuffer::record(const bus::BusTransaction &txn)
{
    if (full()) {
        ++dropped_;
        return false;
    }
    records_.push_back(BusRecord::pack(txn, prevCycle_).raw);
    prevCycle_ = txn.cycle;
    return true;
}

void
CaptureBuffer::dumpToFile(const std::string &path) const
{
    // Unpacking re-chains the cycles the records were packed against,
    // so writeBusTrace packs every record back to the same word. A
    // lossy capture declares itself so every reader (tracestats,
    // replay) knows the trace is a truncated prefix.
    std::vector<bus::BusTransaction> stream;
    stream.reserve(records_.size());
    Cycle prev = 0;
    for (const std::uint64_t raw : records_) {
        stream.push_back(BusRecord(raw).unpack(prev));
        prev = stream.back().cycle;
    }
    writeBusTrace(path, stream, dropped_);
}

void
CaptureBuffer::reset()
{
    records_.clear();
    dropped_ = 0;
    prevCycle_ = 0;
}

} // namespace memories::trace
