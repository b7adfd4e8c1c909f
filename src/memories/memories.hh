/**
 * @file
 * Umbrella public header for the MemorIES library.
 *
 * A typical experiment wires four things together:
 *
 *   1. a Workload (src/workload) producing per-thread references;
 *   2. a HostMachine (src/host) running it through private L1/L2
 *      caches and emitting 6xx bus transactions;
 *   3. a MemoriesBoard (src/ies) plugged into the machine's bus,
 *      configured with up to four emulated shared-cache nodes; and
 *   4. counter extraction via NodeController::stats() or the Console.
 *
 * See examples/quickstart.cpp for the smallest complete program.
 */

#ifndef MEMORIES_MEMORIES_HH
#define MEMORIES_MEMORIES_HH

#include "bus/bus6xx.hh"
#include "bus/busop.hh"
#include "bus/transaction.hh"
#include "cache/config.hh"
#include "cache/tagstore.hh"
#include "campaign/console.hh"
#include "campaign/faultshim.hh"
#include "campaign/manifest.hh"
#include "campaign/plan.hh"
#include "campaign/runner.hh"
#include "checkpoint/codec.hh"
#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/bitops.hh"
#include "common/counters.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "fault/faultplan.hh"
#include "fault/health.hh"
#include "fault/injector.hh"
#include "host/hostcache.hh"
#include "host/iobridge.hh"
#include "host/machine.hh"
#include "host/timing.hh"
#include "ies/board.hh"
#include "ies/analysis.hh"
#include "ies/boardconfig.hh"
#include "ies/commandmap.hh"
#include "ies/console.hh"
#include "ies/fanout.hh"
#include "ies/hotspot.hh"
#include "ies/nodecontroller.hh"
#include "ies/numa.hh"
#include "ies/txnbuffer.hh"
#include "oracle/diff.hh"
#include "oracle/refboard.hh"
#include "oracle/stimulus.hh"
#include "profile/profiler.hh"
#include "protocol/state.hh"
#include "protocol/table.hh"
#include "sim/detailed.hh"
#include "sim/execdriven.hh"
#include "sim/projection.hh"
#include "telemetry/exporter.hh"
#include "telemetry/histogram.hh"
#include "telemetry/sampler.hh"
#include "trace/capture.hh"
#include "trace/chrometrace.hh"
#include "trace/lifecycle.hh"
#include "trace/record.hh"
#include "trace/tracefile.hh"
#include "trace/tracestats.hh"
#include "workload/dss.hh"
#include "workload/oltp.hh"
#include "workload/splash.hh"
#include "workload/synthetic.hh"
#include "workload/web.hh"
#include "workload/workload.hh"

#endif // MEMORIES_MEMORIES_HH
