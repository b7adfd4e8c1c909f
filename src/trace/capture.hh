/**
 * @file
 * The board's on-line trace-capture memory.
 *
 * In trace-collection mode the board's SDRAM (256MB per node, up to 8GB
 * with denser DIMMs) stores packed bus references in real time — up to
 * one billion 8-byte records — which the console later dumps to disk
 * without ever stopping the host program (paper section 2.3).
 */

#ifndef MEMORIES_TRACE_CAPTURE_HH
#define MEMORIES_TRACE_CAPTURE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/record.hh"

namespace memories::trace
{

/** Fixed-capacity capture memory for packed bus references. */
class CaptureBuffer
{
  public:
    /**
     * @param capacity_records Capacity in 8-byte records. The real board
     *        holds 2^27 records per 1GB of SDRAM; any value is accepted
     *        here so tests can use small buffers.
     */
    explicit CaptureBuffer(std::uint64_t capacity_records);

    /**
     * Record one transaction.
     * @return false when the buffer is full (the reference is dropped —
     *         capture mode never stalls the host).
     */
    bool record(const bus::BusTransaction &txn);

    /** Records captured so far. */
    std::uint64_t size() const { return records_.size(); }

    /** Capacity in records. */
    std::uint64_t capacity() const { return capacity_; }

    /** True when no further record fits. */
    bool full() const { return records_.size() >= capacity_; }

    /** References offered after the buffer filled (lost to capture). */
    std::uint64_t dropped() const { return dropped_; }

    /** Access a captured record. */
    BusRecord at(std::uint64_t i) const { return BusRecord(records_[i]); }

    /**
     * Write the captured content to @p path as a bus trace
     * (writeBusTrace): one atomic write, so a failed dump fatal()s
     * and leaves any previous file at @p path byte-identical.
     */
    void dumpToFile(const std::string &path) const;

    /** Clear the buffer for a new capture window. */
    void reset();

  private:
    std::uint64_t capacity_;
    std::vector<std::uint64_t> records_;
    std::uint64_t dropped_ = 0;
    Cycle prevCycle_ = 0;
};

} // namespace memories::trace

#endif // MEMORIES_TRACE_CAPTURE_HH
