#include "oraclecheck.hh"

#include <map>

#include "bus/busop.hh"
#include "oracle/refboard.hh"

namespace perfbench
{

using namespace memories;

void
CommitCapture::observeResult(const bus::BusTransaction &txn,
                             bus::SnoopResponse combined)
{
    if (combined != bus::SnoopResponse::Retry) {
        committed.push_back(txn);
        return;
    }
    if (bus::isFilteredOp(txn.op))
        return;
    ++retried.memory;
    if (bus::isReadOp(txn.op))
        ++retried.reads;
    if (bus::isWriteIntentOp(txn.op))
        ++retried.writes;
    if (txn.op == bus::BusOp::WriteBack)
        ++retried.writebacks;
}

namespace
{

std::map<std::string, std::uint64_t>
productionCounters(const ies::MemoriesBoard &board)
{
    std::map<std::string, std::uint64_t> all;
    const auto collect = [&all](const CounterSample &s) {
        all[std::string(s.name)] = s.value;
    };
    board.globalCounters().snapshot(collect);
    for (std::size_t i = 0; i < board.numNodes(); ++i)
        board.node(i).counters().snapshot(collect);
    return all;
}

} // namespace

std::vector<std::string>
checkAgainstOracle(const ies::MemoriesBoard &board,
                   const std::vector<bus::BusTransaction> &committed,
                   const RetriedTenures *retried, bool corrupt_expect)
{
    std::vector<std::string> problems;
    auto note = [&problems](std::string msg) {
        if (problems.size() < 8)
            problems.push_back(std::move(msg));
    };

    oracle::RefBoard ref(board.config());
    for (const bus::BusTransaction &txn : committed)
        ref.feedCommitted(txn);
    ref.drainAll();

    auto expected = ref.counters();
    if (retried) {
        // Counted by snoop() before the board's own Retry voided them.
        expected["global.tenures.memory"] += retried->memory;
        expected["global.reads"] += retried->reads;
        expected["global.writes"] += retried->writes;
        expected["global.writebacks"] += retried->writebacks;
        expected["global.retries_posted"] += retried->memory;
    }
    if (corrupt_expect)
        expected["global.tenures.committed"] += 1;

    const auto actual = productionCounters(board);
    for (const auto &[name, value] : actual) {
        const auto it = expected.find(name);
        if (it == expected.end())
            note("counter " + name + " missing from the oracle");
        else if (it->second != value)
            note("counter " + name + ": board " + std::to_string(value) +
                 ", oracle " + std::to_string(it->second));
    }
    for (const auto &[name, value] : expected) {
        (void)value;
        if (!actual.count(name))
            note("oracle counter " + name + " missing from the board");
    }

    for (std::size_t n = 0; n < board.numNodes(); ++n) {
        if (board.node(n).directorySnapshot() != ref.directorySnapshot(n))
            note("node " + std::to_string(n) +
                 " directory differs from the oracle's");
    }
    if (board.bufferRetired() != ref.bufferRetired())
        note("buffer retired: board " +
             std::to_string(board.bufferRetired()) + ", oracle " +
             std::to_string(ref.bufferRetired()));
    if (board.bufferHighWater() != ref.bufferHighWater())
        note("buffer high water: board " +
             std::to_string(board.bufferHighWater()) + ", oracle " +
             std::to_string(ref.bufferHighWater()));
    if (board.bufferSize() != 0 || ref.bufferSize() != 0)
        note("buffer not empty after drainAll");
    return problems;
}

void
corruptStream(std::vector<bus::BusTransaction> &stream)
{
    for (bus::BusTransaction &txn : stream) {
        if (txn.op == bus::BusOp::Read) {
            txn.op = bus::BusOp::Rwitm;
            return;
        }
    }
}

void
boardCounts(const ies::MemoriesBoard &board, Counts &counts)
{
    const CounterBank &g = board.globalCounters();
    counts["ies.tenures"] = g.valueByName("global.tenures.memory");
    counts["ies.committed"] = g.valueByName("global.tenures.committed");
    counts["ies.filtered"] = g.valueByName("global.tenures.filtered");
    counts["ies.retries_posted"] = board.retriesPosted();
    counts["ies.lost_inflight"] = board.tenuresLostInflight();
    counts["ies.buffer_high_water"] = board.bufferHighWater();
    for (std::size_t i = 0; i < board.numNodes(); ++i) {
        const ies::NodeStats s = board.node(i).stats();
        const std::string p = "node" + std::to_string(i) + ".";
        counts[p + "miss_ratio"] = s.missRatio();
        counts[p + "evictions_dirty"] = s.evictionsDirty;
        counts[p + "interventions"] =
            s.satisfiedByModIntervention + s.satisfiedByShrIntervention;
        counts[p + "remote_invalidations"] = s.remoteInvalidations;
    }
    for (const auto &[name, value] : productionCounters(board))
        counts["raw." + name] = static_cast<double>(value);
    counts["raw.buffer_retired"] = board.bufferRetired();
}

} // namespace perfbench
