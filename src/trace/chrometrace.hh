/**
 * @file
 * Chrome trace-event JSON export of lifecycle event streams.
 *
 * The flight recorder's binary dumps are for machines; this exporter is
 * for eyes. It renders a lifecycle event stream in the Trace Event
 * Format that chrome://tracing and Perfetto load directly: one process
 * track for the host bus (one thread row per CPU) and one per board
 * (one thread row per node controller). Each bus tenure appears as a
 * complete-duration span from issue to response combine on its CPU's
 * row, its buffer residency as a span from commit to SDRAM retirement
 * on the board track, and cache hits/misses, castouts, protocol state
 * transitions, overflows, marks and anomalies as instant events.
 *
 * Output is deterministic to the byte for a given event stream — fixed
 * event order (metadata first, then recorder order), integer
 * timestamps in bus cycles, no floating point, no environment
 * dependence — so goldens can assert exact bytes and CI can diff two
 * runs. One tick equals one bus cycle (10 ns at the paper's 100 MHz
 * bus); the viewer's microsecond labels are therefore "x100 ns".
 */

#ifndef MEMORIES_TRACE_CHROMETRACE_HH
#define MEMORIES_TRACE_CHROMETRACE_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/lifecycle.hh"

namespace memories::trace
{

/**
 * Write @p events (a FlightRecorder::snapshot() or readLifecycleDump
 * load, oldest first) as Chrome trace-event JSON to @p os.
 *
 * @param labels Optional recorder that resolves Mark label indices;
 *        marks render as "mark <index>" without it.
 */
void writeChromeTrace(const std::vector<LifecycleEvent> &events,
                      std::ostream &os,
                      const FlightRecorder *labels = nullptr);

/** Same, to a file; fatal() when the file cannot be created. */
void writeChromeTraceFile(const std::vector<LifecycleEvent> &events,
                          const std::string &path,
                          const FlightRecorder *labels = nullptr);

/** Render to a string (tests, console replies). */
std::string chromeTraceToString(
    const std::vector<LifecycleEvent> &events,
    const FlightRecorder *labels = nullptr);

} // namespace memories::trace

#endif // MEMORIES_TRACE_CHROMETRACE_HH
