/**
 * @file
 * The IESCAMP campaign manifest: a CRC-guarded record of every unit's
 * lifecycle, durable against kill -9 at any instruction
 * (docs/FORMATS.md §8).
 *
 * The manifest is *write-ahead* in the architectural sense: every
 * state transition is made durable before the work it authorizes (an
 * attempt is recorded Running before its first reference is fed) or
 * after the artifacts it refers to (a checkpoint record lands only
 * once the checkpoint file itself is durable; Done only once the
 * result file is). Each mutation rewrites the whole manifest through
 * ckpt::atomicWriteFile — temp file, fsync, rename, directory fsync —
 * so a reader never observes a torn manifest: a crash leaves either
 * the previous complete manifest or the next one.
 *
 * That atomicity is what lets corruption fail closed. Because no
 * legal crash can tear the file, *any* malformed manifest — bad
 * magic, truncation at any boundary, a flipped bit anywhere, trailing
 * bytes — is evidence of disk corruption, and open() throws
 * FatalError instead of guessing. The one crash artifact a reader may
 * see is a stale `manifest.iescamp.tmp` beside a valid manifest
 * (ignored), or — after a torn rename with no published manifest at
 * all — a .tmp with nothing else, which open() also refuses to trust.
 *
 * The file is an IESCKPT container (checkpoint/file.hh) whose header
 * fingerprint is the plan fingerprint (CampaignPlan::fingerprint),
 * with three sections: the sequence number (bumped on every rewrite),
 * the plan, and every unit's status in plan order. The container's
 * CRCs and tiling rule are the manifest's only framing.
 */

#ifndef MEMORIES_CAMPAIGN_MANIFEST_HH
#define MEMORIES_CAMPAIGN_MANIFEST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/plan.hh"

namespace memories::campaign
{

/** Where a unit sits in its lifecycle. */
enum class UnitState : std::uint8_t
{
    /** Not yet attempted (or rescheduled after backoff). */
    Pending = 0,
    /** An attempt is (or was, if the process died) in flight. */
    Running,
    /** Result file durable and recorded; never touched again. */
    Done,
    /** Last attempt failed; retryable with backoff. */
    Failed,
    /** Attempts exhausted or board sick: permanently parked. */
    Quarantined,
};

/** Mnemonic for a unit state ("pending", ...). */
std::string_view unitStateName(UnitState state);

/** One unit's durable status record. */
struct UnitStatus
{
    UnitState state = UnitState::Pending;
    /** Attempts started so far (charged at markRunning time). */
    std::uint32_t attempts = 0;
    /** Txns durably applied: the position of the last checkpoint. */
    std::uint64_t position = 0;
    /** CRC-32 of the checkpoint file at `position` (0 = none). */
    std::uint32_t ckptCrc = 0;
    /** Running retirement-order digest up to `position`. */
    std::uint32_t retireCrc = 0;
    /** Fleet overflow drops accumulated up to `position`. */
    std::uint64_t overflowDrops = 0;
    /** Stream events consumed up to `position`. */
    std::uint64_t consumed = 0;
    /** CRC-32 of the result file (Done units only). */
    std::uint32_t resultCrc = 0;
    /** Last error / quarantine reason (diagnostics only). */
    std::string note;

    bool operator==(const UnitStatus &) const = default;
};

/** The durable campaign manifest, one per campaign directory. */
class Manifest
{
  public:
    /**
     * Create a fresh manifest for @p plan in @p dir (which must
     * exist) and persist it. fatal() when a manifest already exists —
     * starting over an existing campaign must be an explicit
     * operator decision, never an accident.
     */
    static Manifest create(const std::string &dir,
                           const CampaignPlan &plan);

    /**
     * Load the manifest in @p dir: the container's magic, version,
     * CRCs and tiling, then each section's structure and the plan
     * fingerprint. Fails closed (FatalError) on any violation —
     * including a torn rename that left only a .tmp.
     */
    static Manifest open(const std::string &dir);

    const std::string &dir() const { return dir_; }
    const CampaignPlan &plan() const { return plan_; }
    std::uint64_t sequence() const { return sequence_; }

    const std::vector<UnitStatus> &units() const { return units_; }
    const UnitStatus &unit(std::size_t i) const { return units_.at(i); }

    /**
     * Stage a new status for unit @p i in memory. Nothing is durable
     * until persist() — batch all of one segment boundary's updates
     * into a single atomic rewrite.
     */
    void stage(std::size_t i, const UnitStatus &status);

    /** Stage + persist in one call (single-unit transitions). */
    void update(std::size_t i, const UnitStatus &status);

    /** Atomically rewrite the manifest file with the staged state. */
    void persist();

    /** Multi-line human rendering ("campaign status"). */
    std::string describe() const;

    /** Campaign file locations, all inside the campaign directory. */
    static std::string manifestPath(const std::string &dir);
    std::string checkpointPath(std::size_t unit,
                               std::uint64_t position) const;
    std::string resultPath(std::size_t unit) const;

  private:
    Manifest() = default;

    std::string dir_;
    CampaignPlan plan_;
    std::vector<UnitStatus> units_;
    std::uint64_t sequence_ = 0;
};

} // namespace memories::campaign

#endif // MEMORIES_CAMPAIGN_MANIFEST_HH
