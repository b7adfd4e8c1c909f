/**
 * @file
 * The output check: a measured board's final state against the
 * differential oracle's naive RefBoard (src/oracle/refboard.hh) fed the
 * same committed tenures, plus the board-layer counts every workload
 * reports.
 *
 * oracle::diffStream builds its own production board, so it cannot
 * vouch for the board a benchmark repetition actually timed; this check
 * applies the same final-state rules (every Counter40, every node
 * directory, buffer totals) to the timed board itself.
 */

#ifndef PERFBENCH_ORACLECHECK_HH
#define PERFBENCH_ORACLECHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hh"
#include "bus/bus6xx.hh"
#include "ies/board.hh"

namespace perfbench
{

/**
 * Live-bus tenures the board counted at snoop time that never
 * committed (it posted the Retry itself on a full buffer). The oracle
 * sees only committed tenures, so these are the exact difference in
 * the snoop-time counters.
 */
struct RetriedTenures
{
    std::uint64_t memory = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Bench-side BusObserver for the live path: records every committed
 * tenure (combined response not Retry) in bus order and tallies the
 * retried ones. Attached after the board, it only ever reads.
 */
class CommitCapture : public memories::bus::BusObserver
{
  public:
    void observeResult(const memories::bus::BusTransaction &txn,
                       memories::bus::SnoopResponse combined) override;

    std::vector<memories::bus::BusTransaction> committed;
    RetriedTenures retried;
};

/**
 * Diff @p board against a RefBoard built from the same configuration
 * and seed and fed @p committed, then drained. @p retried is non-null
 * on the live path. With @p corrupt_expect one expected counter is
 * deliberately off by one (self-test). @return one line per mismatch.
 */
std::vector<std::string>
checkAgainstOracle(const memories::ies::MemoriesBoard &board,
                   const std::vector<memories::bus::BusTransaction>
                       &committed,
                   const RetriedTenures *retried, bool corrupt_expect);

/**
 * Self-test: turn the first Read of @p stream into an Rwitm, which
 * moves one count between per-op counters whatever the geometry.
 */
void corruptStream(std::vector<memories::bus::BusTransaction> &stream);

/**
 * Board-layer counts: ies.* (global bank and buffer), node<i>.*
 * digests, and every raw counter as raw.<name> for the determinism
 * check.
 */
void boardCounts(const memories::ies::MemoriesBoard &board,
                 Counts &counts);

} // namespace perfbench

#endif // PERFBENCH_ORACLECHECK_HH
