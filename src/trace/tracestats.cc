#include "trace/tracestats.hh"

#include <algorithm>
#include <iterator>
#include <sstream>

#include "common/stats.hh"
#include "common/units.hh"
#include "trace/tracefile.hh"

namespace memories::trace
{

void
TraceStats::record(const bus::BusTransaction &txn)
{
    ++records_;
    ++opCounts_[static_cast<std::size_t>(txn.op)];
    if (txn.cpu < maxHostCpus)
        ++cpuCounts_[txn.cpu];
    lines_.insert(txn.addr & ~Addr{127});
    if (!sawAny_) {
        first_ = txn.cycle;
        sawAny_ = true;
    }
    last_ = txn.cycle;
}

TraceStats
TraceStats::fromFile(const std::string &path)
{
    const BusTrace trace = readBusTrace(path);
    TraceStats stats;
    stats.dropped_ = trace.droppedAtCapture;
    for (const bus::BusTransaction &txn : trace.stream)
        stats.record(txn);
    return stats;
}

double
TraceStats::utilization() const
{
    const Cycle span = last_ > first_ ? last_ - first_ : 0;
    return span == 0 ? 0.0
                     : static_cast<double>(records_) /
                           static_cast<double>(span);
}

double
TraceStats::readFraction() const
{
    std::uint64_t reads = 0, memory = 0;
    for (std::size_t i = 0; i < bus::numBusOps; ++i) {
        const auto op = static_cast<bus::BusOp>(i);
        if (!bus::isMemoryOp(op))
            continue;
        memory += opCounts_[i];
        if (bus::isReadOp(op))
            reads += opCounts_[i];
    }
    return ratio(reads, memory);
}

std::string
TraceStats::report() const
{
    std::ostringstream os;
    os << "records " << records_ << ", footprint "
       << formatByteSize(footprintBytes()) << " (" << uniqueLines()
       << " lines), span " << (last_ - first_) << " cycles, "
       << "utilization " << utilization() << ", read fraction "
       << readFraction() << "\n";
    if (dropped_ > 0) {
        os << "LOSSY CAPTURE: " << dropped_
           << " references dropped after the capture buffer filled\n";
    }
    os << "per command:";
    for (std::size_t i = 0; i < bus::numBusOps; ++i) {
        if (opCounts_[i] > 0)
            os << ' ' << bus::busOpName(static_cast<bus::BusOp>(i))
               << '=' << opCounts_[i];
    }
    os << "\nper cpu:";
    for (unsigned c = 0; c < maxHostCpus; ++c) {
        if (cpuCounts_[c] > 0)
            os << " cpu" << c << '=' << cpuCounts_[c];
    }
    os << '\n';
    return os.str();
}

std::vector<bus::BusTransaction>
sliceTrace(const std::vector<bus::BusTransaction> &stream,
           std::uint64_t from, std::uint64_t count)
{
    const std::size_t begin = std::min<std::uint64_t>(from, stream.size());
    const std::size_t end =
        begin + std::min<std::uint64_t>(count, stream.size() - begin);
    return {stream.begin() + begin, stream.begin() + end};
}

std::vector<bus::BusTransaction>
filterTrace(const std::vector<bus::BusTransaction> &stream,
            const std::function<bool(const bus::BusTransaction &)> &keep)
{
    std::vector<bus::BusTransaction> kept;
    std::copy_if(stream.begin(), stream.end(), std::back_inserter(kept),
                 keep);
    return kept;
}

} // namespace memories::trace
