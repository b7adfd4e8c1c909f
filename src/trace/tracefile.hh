/**
 * @file
 * Binary trace files: the console-side persistence of captured traces.
 *
 * Two formats live here. Bus traces: a header (magic, version, record
 * count and — since v2 — the count of references the capture buffer
 * dropped after filling) followed by packed BusRecords in little-endian
 * order. The board dumps its capture buffer through the console to disk
 * in this format, and the baseline trace-driven simulator replays it.
 * Lifecycle dumps: the flight recorder's events as one section of an
 * IESCKPT container (docs/FORMATS.md §6-7), written by
 * writeLifecycleDump in one atomic write and loaded by
 * readLifecycleDump for offline analysis or Chrome-trace conversion.
 */

#ifndef MEMORIES_TRACE_TRACEFILE_HH
#define MEMORIES_TRACE_TRACEFILE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "trace/lifecycle.hh"
#include "trace/record.hh"

namespace memories::trace
{

/** Magic bytes at the start of every trace file ("IESTRACE"). */
inline constexpr std::uint64_t traceMagic = 0x4945535452414345ull;

/**
 * Current trace file format version. v2 adds the capture-time dropped
 * count to the header; v1 files (24-byte header) remain readable.
 */
inline constexpr std::uint32_t traceVersion = 2;

/** Streaming writer for a binary bus trace. */
class TraceWriter
{
  public:
    /** Open @p path for writing; fatal() if the file cannot be created. */
    explicit TraceWriter(const std::string &path);

    /** Flushes the header and closes the file. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /** Append a transaction (packed against the previous one's cycle). */
    void append(const bus::BusTransaction &txn);

    /** Append an already-packed record. */
    void appendRecord(BusRecord rec);

    /** Records written so far. */
    std::uint64_t count() const { return count_; }

    /**
     * Record in the header how many references the capture dropped
     * after its buffer filled (CaptureBuffer::dropped()), so a lossy
     * capture declares itself to every future reader. Takes effect at
     * the next flush().
     */
    void setDroppedAtCapture(std::uint64_t dropped)
    {
        dropped_ = dropped;
    }

    /** Flush buffered records and rewrite the header. */
    void flush();

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const { if (f) std::fclose(f); }
    };

    void writeHeader();

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::string path_;
    std::vector<std::uint64_t> buffer_;
    std::uint64_t count_ = 0;
    std::uint64_t dropped_ = 0;
    Cycle prevCycle_ = 0;
};

/** Reader that loads or streams a binary bus trace. */
class TraceReader
{
  public:
    /**
     * Open @p path; fatal() on a missing file, bad magic/version, or
     * fewer records than the header declares.
     */
    explicit TraceReader(const std::string &path);

    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    /** Total records in the file. */
    std::uint64_t count() const { return count_; }

    /**
     * References the capture dropped after its buffer filled (v2
     * headers; 0 for v1 files, which predate the field). Nonzero means
     * the trace is a lossy prefix of the bus stream it observed.
     */
    std::uint64_t droppedAtCapture() const { return dropped_; }

    /**
     * Read the next record into @p rec.
     * @return false at end of trace.
     */
    bool next(BusRecord &rec);

    /**
     * Read the next record as an unpacked transaction (cycle
     * reconstruction is handled internally).
     * @return false at end of trace.
     */
    bool next(bus::BusTransaction &txn);

    /** Rewind to the first record. */
    void rewind();

  private:
    struct FileCloser
    {
        void operator()(std::FILE *f) const { if (f) std::fclose(f); }
    };

    void fillBuffer();

    std::unique_ptr<std::FILE, FileCloser> file_;
    std::uint64_t count_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t headerWords_ = 3;
    std::uint64_t readSoFar_ = 0;
    Cycle prevCycle_ = 0;
    std::vector<std::uint64_t> buffer_;
    std::size_t bufferPos_ = 0;
};

/**
 * Write @p events as a lifecycle dump: an IESCKPT container with
 * config fingerprint 0 and one ckpt::secLifecycle section (docs/
 * FORMATS.md §6). One atomic write, so a failed dump fatal()s and
 * leaves any previous file at @p path byte-identical. This is the
 * flight recorder's machine-readable dump; writeChromeTrace is the
 * human one.
 */
void writeLifecycleDump(const std::string &path,
                        const std::vector<LifecycleEvent> &events);

/**
 * Load every event of the lifecycle dump at @p path. fatal() when the
 * file is missing, fails any container check, has no lifecycle
 * section, or its event count does not match the section's payload.
 */
std::vector<LifecycleEvent> readLifecycleDump(const std::string &path);

} // namespace memories::trace

#endif // MEMORIES_TRACE_TRACEFILE_HH
