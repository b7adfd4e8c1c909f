#include "ies/fanout.hh"

#include <algorithm>

#include "bus/busop.hh"
#include "common/logging.hh"
#include "trace/tracefile.hh"

namespace memories::ies
{

ExperimentFleet::ExperimentFleet(FleetOptions opts) : opts_(opts)
{
    if (opts_.ringCapacity == 0)
        fatal("fleet ring capacity must be positive");
    if (opts_.batchSize == 0)
        fatal("fleet batch size must be positive");
}

ExperimentFleet::~ExperimentFleet()
{
    finish();
}

std::size_t
ExperimentFleet::addExperiment(const BoardConfig &config,
                               std::uint64_t seed,
                               const std::string &label)
{
    requireIdle("addExperiment");
    boards_.push_back(MemoriesBoard::make(config, seed));
    labels_.push_back(label.empty()
                          ? "experiment" + std::to_string(boards_.size() - 1)
                          : label);
    return boards_.size() - 1;
}

void
ExperimentFleet::attach(bus::Bus6xx &bus)
{
    if (tappedBus_)
        fatal("ExperimentFleet is already attached to a bus");
    bus.attachObserver(this);
    tappedBus_ = &bus;
}

void
ExperimentFleet::detach(bus::Bus6xx &bus)
{
    bus.detachObserver(this);
    if (tappedBus_ == &bus)
        tappedBus_ = nullptr;
}

void
ExperimentFleet::start(std::size_t workers)
{
    requireIdle("start");
    if (boards_.empty())
        fatal("ExperimentFleet::start with no experiments added");
    // A flight recorder has one writer thread: no two boards (run by
    // workers) and no board and the tapped bus (run by the host) may
    // share one.
    for (std::size_t i = 0; i < boards_.size(); ++i) {
        const trace::FlightRecorder *recorder =
            boards_[i]->flightRecorder();
        if (!recorder)
            continue;
        if (tappedBus_ && tappedBus_->flightRecorder() == recorder)
            fatal("ExperimentFleet::start: board ", i,
                  " shares the tapped bus's flight recorder");
        for (std::size_t j = i + 1; j < boards_.size(); ++j) {
            if (boards_[j]->flightRecorder() == recorder)
                fatal("ExperimentFleet::start: boards ", i, " and ", j,
                      " share a flight recorder");
        }
    }
    const std::size_t count =
        std::min(std::max<std::size_t>(workers, 1), boards_.size());

    ring_ = std::make_unique<EventRing>(opts_.ringCapacity,
                                        boards_.size());
    producerBuf_.clear();
    producerBuf_.reserve(opts_.batchSize);
    overflowDrops_.assign(boards_.size(), 0);
    eventsConsumed_.assign(boards_.size(), 0);
    published_ = 0;
    tapFiltered_ = 0;
    tapRetryDropped_ = 0;
    running_ = true;

    workers_.reserve(count);
    for (std::size_t w = 0; w < count; ++w)
        workers_.emplace_back(
            [this, w, count] { workerMain(w, count); });
}

void
ExperimentFleet::finish()
{
    if (!running_)
        return;
    flushProducer();
    ring_->close();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    running_ = false;
    if (tappedBus_) {
        tappedBus_->detachObserver(this);
        tappedBus_ = nullptr;
    }
    // The host has gone quiet: let every board's SDRAM side catch up,
    // exactly as a directly-plugged board would at end of measurement.
    for (auto &b : boards_)
        b->drainAll();
}

void
ExperimentFleet::replayFile(const std::string &path, std::size_t workers)
{
    const trace::BusTrace trace = trace::readBusTrace(path);
    start(workers);
    for (const bus::BusTransaction &txn : trace.stream)
        publish(txn);
    finish();
}

void
ExperimentFleet::publish(const bus::BusTransaction &txn)
{
    if (!running_)
        fatal("ExperimentFleet::publish before start()");
    producerBuf_.push_back(txn);
    ++published_;
    if (producerBuf_.size() >= opts_.batchSize)
        flushProducer();
}

void
ExperimentFleet::observeResult(const bus::BusTransaction &txn,
                               bus::SnoopResponse combined)
{
    if (!running_)
        return;
    if (bus::isFilteredOp(txn.op)) {
        ++tapFiltered_;
        return;
    }
    if (combined == bus::SnoopResponse::Retry) {
        // The tenure did not complete; the host will replay it.
        ++tapRetryDropped_;
        return;
    }
    publish(txn);
}

void
ExperimentFleet::flushProducer()
{
    if (producerBuf_.empty())
        return;
    ring_->push(producerBuf_.data(), producerBuf_.size());
    producerBuf_.clear();
}

void
ExperimentFleet::workerMain(std::size_t worker, std::size_t worker_count)
{
    std::vector<std::size_t> owned;
    for (std::size_t i = worker; i < boards_.size(); i += worker_count)
        owned.push_back(i);
    if (owned.empty())
        return;

    std::vector<bus::BusTransaction> batch(opts_.batchSize);
    while (true) {
        bool progressed = false;
        bool all_drained = true;
        for (std::size_t i : owned) {
            bool drained = false;
            const std::size_t n =
                ring_->pop(i, batch.data(), batch.size(), &drained);
            if (n > 0) {
                feedBoard(i, batch.data(), n);
                progressed = true;
            }
            if (!drained)
                all_drained = false;
        }
        if (all_drained)
            return;
        if (!progressed)
            ring_->waitForEvents(owned);
    }
}

void
ExperimentFleet::feedBoard(std::size_t i, const bus::BusTransaction *events,
                           std::size_t n)
{
    // A tenure the board refuses would have drawn a bus retry, and the
    // host would have replayed it; in replay there is no host to
    // replay it, so it is lost to this board only.
    const std::size_t accepted = boards_[i]->feedBatch(events, n);
    overflowDrops_[i] += n - accepted;
    eventsConsumed_[i] += n;
}

void
ExperimentFleet::requireIdle(const char *what) const
{
    if (running_)
        fatal("ExperimentFleet::", what, " while the fleet is running");
}

std::uint64_t
ExperimentFleet::backpressureStalls(std::size_t i) const
{
    requireIdle("backpressureStalls");
    return ring_ ? ring_->stalls(i) : 0;
}

std::uint64_t
ExperimentFleet::overflowDrops(std::size_t i) const
{
    requireIdle("overflowDrops");
    return i < overflowDrops_.size() ? overflowDrops_[i] : 0;
}

std::uint64_t
ExperimentFleet::eventsConsumed(std::size_t i) const
{
    requireIdle("eventsConsumed");
    return i < eventsConsumed_.size() ? eventsConsumed_[i] : 0;
}

void
ExperimentFleet::attachTelemetry(telemetry::Sampler &sampler)
{
    sampler.addValue("fleet.published", [this] { return published_; });
    sampler.addValue("fleet.tap_filtered",
                     [this] { return tapFiltered_; });
    sampler.addValue("fleet.tap_retry_dropped",
                     [this] { return tapRetryDropped_; });
}

} // namespace memories::ies
