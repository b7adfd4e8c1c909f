/**
 * @file
 * Multi-configuration fan-out: one host bus stream, many boards.
 *
 * The hardware board emulates exactly one memory configuration per
 * real-time run, so each cache-sensitivity curve in the paper's case
 * studies (Figures 9-11) is a separate multi-hour host run. A software
 * board has no such constraint: because the board is a *passive*
 * snooper, one host bus stream can legally feed any number of
 * MemoriesBoard instances at once.
 *
 * ExperimentFleet implements that fan-out. A single tap attaches to the
 * host Bus6xx as a BusObserver, records every committed tenure into a
 * bounded broadcast ring (EventRing, ies/eventring.hh), and a
 * std::thread pool replays the stream into M independently-configured
 * boards through feedBatch, one popped chunk at a time (one board per
 * ring cursor, no shared mutable state between boards, each seeded
 * deterministically). The same machinery replays a captured trace file
 * offline through the identical code path.
 *
 * Passivity is preserved end to end: the tap never drives a snoop
 * response, and when the ring fills behind a slow board the *producer's
 * wall clock* stalls — bus time is virtual, so the emulated host sees
 * no perturbation at all. Each stall episode is charged to the lagging
 * boards' backpressure counters so a slow configuration surfaces as a
 * number, never as host interference.
 *
 * Bit-exactness contract (enforced by tests/ies/fanout_equiv_test.cc):
 * as long as no board overflows its transaction buffer, every
 * NodeController counter of a fleet-fed board is bit-identical to the
 * same board plugged directly into the bus, for any worker count.
 * Node-level emulation depends only on the order of committed tenures,
 * which the ring preserves per cursor; SDRAM pacing shifts *when*
 * entries retire, not their order. On overflow a live board posts a bus
 * retry and the host replays the tenure, while a fleet board silently
 * drops it (counted in overflowDrops()) — so overflow is the one point
 * of divergence, exactly as it is the one non-passive behaviour of the
 * hardware (paper section 3.3).
 */

#ifndef MEMORIES_IES_FANOUT_HH
#define MEMORIES_IES_FANOUT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bus/bus6xx.hh"
#include "ies/board.hh"
#include "ies/eventring.hh"

namespace memories::ies
{

/** Tunables of the fan-out machinery. */
struct FleetOptions
{
    /** Events buffered between the tap and the boards. */
    std::size_t ringCapacity = std::size_t{1} << 14;
    /** Producer flush / consumer pop granule. */
    std::size_t batchSize = 256;
};

/**
 * A fleet of independently-configured boards fed from one bus stream.
 *
 * Live mode:
 *
 *   ExperimentFleet fleet;
 *   for (const auto &cfg : configs) fleet.addExperiment(cfg, seed);
 *   fleet.attach(machine.bus());
 *   fleet.start(workers);
 *   machine.run(refs);          // boards consume while the host runs
 *   fleet.finish();             // join, drain, detach
 *
 * Offline mode replays a captured trace file through the same path:
 *
 *   fleet.replayFile("oltp.trace", workers);
 *
 * Boards are assigned to workers statically (board i belongs to worker
 * i mod W), so each board is always advanced by exactly one thread in
 * ring order — results are independent of the worker count, which the
 * determinism tests assert.
 */
class ExperimentFleet final : public bus::BusObserver
{
  public:
    explicit ExperimentFleet(FleetOptions opts = {});
    ~ExperimentFleet() override;

    ExperimentFleet(const ExperimentFleet &) = delete;
    ExperimentFleet &operator=(const ExperimentFleet &) = delete;

    /**
     * Add one board configuration to the fleet (before start()).
     * @return the experiment's index.
     */
    std::size_t addExperiment(const BoardConfig &config,
                              std::uint64_t seed = 1,
                              const std::string &label = "");

    std::size_t numExperiments() const { return boards_.size(); }
    MemoriesBoard &board(std::size_t i) { return *boards_[i]; }
    const MemoriesBoard &board(std::size_t i) const { return *boards_[i]; }
    const std::string &label(std::size_t i) const { return labels_[i]; }

    /** Attach the tap to the host bus (live mode). */
    void attach(bus::Bus6xx &bus);

    /** Detach the tap (finish() also does this). */
    void detach(bus::Bus6xx &bus);

    /**
     * Spawn @p workers consumer threads (clamped to the experiment
     * count) and begin accepting events. Restartable: a finished fleet
     * may start() again with warm boards and fresh fleet counters.
     * fatal() before any worker starts when two boards hold the same
     * flight recorder, or a board holds the tapped bus's.
     */
    void start(std::size_t workers);

    /**
     * Close the stream, join the workers, drain every board's
     * transaction buffer, and detach the tap if attached.
     */
    void finish();

    /**
     * Offline mode: replay a captured bus trace into the fleet using
     * @p workers threads. Reads the whole file first, so a damaged
     * trace fails before any worker starts; then start(); publish()
     * per record; finish().
     */
    void replayFile(const std::string &path, std::size_t workers);

    /**
     * Feed one committed tenure from a custom source (offline mode).
     * Events are batched; the ring sees them in publication order.
     */
    void publish(const bus::BusTransaction &txn);

    /** BusObserver tap: records committed memory tenures (a retried
     *  tenure is dropped here; the host replays it). */
    void observeResult(const bus::BusTransaction &txn,
                       bus::SnoopResponse combined) override;

    bool running() const { return running_; }

    /** Committed tenures published to the ring. */
    std::uint64_t eventsPublished() const { return published_; }

    /** Tenures the tap skipped as non-memory operations. */
    std::uint64_t tapFiltered() const { return tapFiltered_; }

    /** Tenures the tap skipped because the host retried them. */
    std::uint64_t tapRetryDropped() const { return tapRetryDropped_; }

    /**
     * Producer stall episodes charged to board @p i (the board held the
     * slowest cursor while the ring was full). Read after finish().
     */
    std::uint64_t backpressureStalls(std::size_t i) const;

    /**
     * Committed tenures board @p i dropped because its transaction
     * buffer overflowed (a live board would have retried them on the
     * bus instead). Read after finish().
     */
    std::uint64_t overflowDrops(std::size_t i) const;

    /** Events consumed by board @p i. Read after finish(). */
    std::uint64_t eventsConsumed(std::size_t i) const;

    /**
     * Register the fleet's tap-side totals with a sampler:
     * "fleet.published", "fleet.tap_filtered" and
     * "fleet.tap_retry_dropped". Call Sampler::resync() after start()
     * — start() zeroes these counters, which would corrupt baselines
     * captured earlier.
     *
     * The tap counters are written on the bus-time thread (the
     * sampler's thread), so they are safe to sample live and their
     * windows are deterministic for a deterministic host run. Nothing
     * a worker writes is: the boards' CounterBanks and the per-board
     * counts above are read after finish() (FleetReport), and
     * MemoriesBoard::attachTelemetry is only for single-owner boards.
     */
    void attachTelemetry(telemetry::Sampler &sampler);

    /**
     * Attach a flight recorder to board @p i, tagging its lifecycle
     * events with the board index. Use one recorder per board: a
     * recorder has one writer thread, and each board is advanced by
     * exactly one worker, so start() refuses two boards that share a
     * recorder, or a board that shares the tapped bus's. The
     * per-board streams can be compared directly with
     * trace::firstDivergence() (two boards fed the same stream should
     * diverge only where their configurations make them). Call before
     * start().
     */
    void attachFlightRecorder(std::size_t i,
                              trace::FlightRecorder &recorder)
    {
        requireIdle("attachFlightRecorder");
        boards_[i]->attachFlightRecorder(
            recorder, static_cast<std::uint8_t>(i));
    }

    /**
     * Attach a fault injector to board @p i. One injector per board —
     * each board is advanced by exactly one worker, so a private
     * injector needs no synchronization and keeps its fault sequence a
     * pure function of (plan, seed, that board's stream). Call before
     * start(); the caller keeps ownership for the fleet's lifetime.
     */
    void attachFaultInjector(std::size_t i,
                             fault::FaultInjector &injector)
    {
        requireIdle("attachFaultInjector");
        boards_[i]->attachFaultInjector(injector);
    }

    /**
     * Checkpoint board @p i to @p path as an IESCKPT container
     * (MemoriesBoard::saveState). Only between runs: the board must be
     * quiescent so the capture is a consistent cut.
     */
    void checkpointBoard(std::size_t i, const std::string &path) const
    {
        requireIdle("checkpointBoard");
        boards_[i]->saveState(path);
    }

    /**
     * Restore board @p i from an IESCKPT checkpoint
     * (MemoriesBoard::loadState): fails closed on any mismatch,
     * leaving the board untouched. Only between runs.
     */
    void restoreBoard(std::size_t i, const std::string &path)
    {
        requireIdle("restoreBoard");
        boards_[i]->loadState(path);
    }

  private:
    void workerMain(std::size_t worker, std::size_t worker_count);
    void feedBoard(std::size_t i, const bus::BusTransaction *events,
                   std::size_t n);
    void flushProducer();
    void requireIdle(const char *what) const;

    FleetOptions opts_;
    std::vector<std::unique_ptr<MemoriesBoard>> boards_;
    std::vector<std::string> labels_;
    std::unique_ptr<EventRing> ring_;
    std::vector<std::thread> workers_;
    std::vector<bus::BusTransaction> producerBuf_;
    bus::Bus6xx *tappedBus_ = nullptr;
    bool running_ = false;

    std::uint64_t published_ = 0;
    std::uint64_t tapFiltered_ = 0;
    std::uint64_t tapRetryDropped_ = 0;
    /** Per board, sized at start(): written only by the owning worker,
     *  read after finish(). */
    std::vector<std::uint64_t> overflowDrops_;
    std::vector<std::uint64_t> eventsConsumed_;
};

} // namespace memories::ies

#endif // MEMORIES_IES_FANOUT_HH
