/**
 * @file
 * Binary trace files: the console-side persistence of captured traces.
 *
 * Two kinds of file live here, each an IESCKPT container (docs/
 * FORMATS.md §7) with config fingerprint 0 and one section, written
 * whole in one atomic write and read back whole. The functions below
 * are the only code that knows either section's layout.
 * Bus traces (§3): the dropped-at-capture count, the record count and
 * the packed BusRecords. The board dumps its capture buffer through
 * the console in this format; the slice/filter tools, the detailed
 * simulator, the fan-out fleet, the wire's `stream replay` and the
 * oracle replay it.
 * Lifecycle dumps (§6): the flight recorder's events, written by
 * writeLifecycleDump and loaded by readLifecycleDump for offline
 * analysis.
 */

#ifndef MEMORIES_TRACE_TRACEFILE_HH
#define MEMORIES_TRACE_TRACEFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bus/transaction.hh"
#include "trace/lifecycle.hh"

namespace memories::trace
{

/** A bus trace as read back from its file. */
struct BusTrace
{
    /**
     * The references in capture order: cycles re-chained from the
     * packed deltas, addresses at the 128-byte capture granularity,
     * traceId 0 (the packed record does not store it).
     */
    std::vector<bus::BusTransaction> stream;
    /**
     * References the capture dropped after its buffer filled
     * (CaptureBuffer::dropped()). Nonzero means the trace is a lossy
     * prefix of the bus stream it observed.
     */
    std::uint64_t droppedAtCapture = 0;
};

/**
 * Write @p stream as a bus trace: an IESCKPT container with config
 * fingerprint 0 and one ckpt::secBusTrace section (docs/FORMATS.md
 * §3), each reference packed against the previous one's cycle. One
 * atomic write, so a failed write fatal()s and leaves any previous
 * file at @p path byte-identical.
 * @param dropped_at_capture Declared to every reader (BusTrace).
 */
void writeBusTrace(const std::string &path,
                   const std::vector<bus::BusTransaction> &stream,
                   std::uint64_t dropped_at_capture = 0);

/**
 * Load the whole bus trace at @p path. fatal() when the file is
 * missing, fails any container check, has no bus-trace section, its
 * record count does not match the section's payload, or a record
 * names an unknown bus command.
 */
BusTrace readBusTrace(const std::string &path);

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
