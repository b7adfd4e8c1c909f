#include "campaign/manifest.hh"

#include <sstream>

#include "checkpoint/file.hh"
#include "checkpoint/io.hh"
#include "common/logging.hh"

namespace memories::campaign
{

std::string_view
unitStateName(UnitState state)
{
    switch (state) {
      case UnitState::Pending:     return "pending";
      case UnitState::Running:     return "running";
      case UnitState::Done:        return "done";
      case UnitState::Failed:      return "failed";
      case UnitState::Quarantined: return "quarantined";
    }
    return "?";
}

std::string
Manifest::manifestPath(const std::string &dir)
{
    return dir + "/manifest.iescamp";
}

std::string
Manifest::checkpointPath(std::size_t unit, std::uint64_t position) const
{
    // Position-versioned names keep the crash window between "new
    // checkpoint durable" and "manifest records it" safe: the old
    // position's file is never overwritten, so the manifest always
    // references bytes that exist exactly as hashed.
    return dir_ + "/unit" + std::to_string(unit) + ".pos" +
           std::to_string(position) + ".ckpt";
}

std::string
Manifest::resultPath(std::size_t unit) const
{
    return dir_ + "/unit" + std::to_string(unit) + ".result";
}

Manifest
Manifest::create(const std::string &dir, const CampaignPlan &plan)
{
    if (plan.units.empty())
        fatal("refusing to create a campaign with no units");
    if (ckpt::fileExists(manifestPath(dir))) {
        fatal("campaign manifest already exists at '",
              manifestPath(dir),
              "' — use resume, or remove the directory to start over");
    }
    Manifest m;
    m.dir_ = dir;
    m.plan_ = plan;
    m.units_.assign(plan.units.size(), UnitStatus{});
    m.persist();
    return m;
}

void
Manifest::persist()
{
    ++sequence_;
    ckpt::CheckpointWriter writer;
    writer.section(ckpt::secCampaignSequence).u64(sequence_);
    plan_.save(writer.section(ckpt::secCampaignPlan));
    ckpt::Sink &units = writer.section(ckpt::secCampaignUnits);
    units.u32(static_cast<std::uint32_t>(units_.size()));
    for (const UnitStatus &s : units_) {
        units.u8(static_cast<std::uint8_t>(s.state));
        units.u32(s.attempts);
        units.u64(s.position);
        units.u32(s.ckptCrc);
        units.u32(s.retireCrc);
        units.u64(s.overflowDrops);
        units.u64(s.consumed);
        units.u32(s.resultCrc);
        units.str(s.note);
    }
    writer.writeFile(manifestPath(dir_), plan_.fingerprint());
}

Manifest
Manifest::open(const std::string &dir)
{
    const std::string path = manifestPath(dir);
    if (!ckpt::fileExists(path)) {
        if (ckpt::fileExists(path + ".tmp")) {
            fatal("campaign manifest '", path,
                  "' is missing but a temp file exists — torn rename "
                  "or interrupted first write; refusing to trust the "
                  "unpublished bytes");
        }
        fatal("no campaign manifest at '", path, "'");
    }
    const std::string context = "manifest '" + path + "'";
    const ckpt::CheckpointImage image = ckpt::CheckpointImage::fromBytes(
        ckpt::readFileBytes(path, "campaign manifest"), context);
    if (image.sectionIds().size() != 3) {
        fatal(context, ": ", image.sectionIds().size(),
              " sections (want sequence, plan and units)");
    }

    Manifest out;
    out.dir_ = dir;
    ckpt::Source sequence = image.open(ckpt::secCampaignSequence);
    out.sequence_ = sequence.u64();
    sequence.expectEnd();

    ckpt::Source plan = image.open(ckpt::secCampaignPlan);
    out.plan_ = CampaignPlan::load(plan);
    plan.expectEnd();
    if (image.configFingerprint() != out.plan_.fingerprint()) {
        fatal(context, ": plan fingerprint mismatch (header 0x",
              std::hex, image.configFingerprint(), ", plan 0x",
              out.plan_.fingerprint(), std::dec, ")");
    }

    ckpt::Source units = image.open(ckpt::secCampaignUnits);
    const std::uint32_t count = units.u32();
    if (count != out.plan_.units.size()) {
        fatal(units.context(), ": ", count, " unit records for ",
              out.plan_.units.size(), " plan units");
    }
    out.units_.resize(count);
    for (UnitStatus &s : out.units_) {
        const std::uint8_t state = units.u8();
        if (state > static_cast<std::uint8_t>(UnitState::Quarantined))
            fatal(units.context(), ": unknown unit state ",
                  unsigned{state});
        s.state = static_cast<UnitState>(state);
        s.attempts = units.u32();
        s.position = units.u64();
        s.ckptCrc = units.u32();
        s.retireCrc = units.u32();
        s.overflowDrops = units.u64();
        s.consumed = units.u64();
        s.resultCrc = units.u32();
        s.note = units.str();
    }
    units.expectEnd();
    return out;
}

void
Manifest::stage(std::size_t i, const UnitStatus &status)
{
    units_.at(i) = status;
}

void
Manifest::update(std::size_t i, const UnitStatus &status)
{
    stage(i, status);
    persist();
}

std::string
Manifest::describe() const
{
    std::size_t byState[5] = {};
    std::uint64_t applied = 0, total = 0;
    for (std::size_t i = 0; i < units_.size(); ++i) {
        byState[static_cast<std::size_t>(units_[i].state)]++;
        applied += units_[i].state == UnitState::Done
                       ? plan_.units[i].txns
                       : units_[i].position;
        total += plan_.units[i].txns;
    }
    std::ostringstream os;
    os << "IESCAMP campaign at " << dir_ << " (seq " << sequence_
       << ")\n"
       << "  units: " << units_.size() << " ("
       << byState[static_cast<std::size_t>(UnitState::Done)]
       << " done, "
       << byState[static_cast<std::size_t>(UnitState::Running)]
       << " running, "
       << byState[static_cast<std::size_t>(UnitState::Pending)]
       << " pending, "
       << byState[static_cast<std::size_t>(UnitState::Failed)]
       << " failed, "
       << byState[static_cast<std::size_t>(UnitState::Quarantined)]
       << " quarantined)\n"
       << "  refs:  " << applied << " / " << total
       << " durably applied\n";
    for (std::size_t i = 0; i < units_.size(); ++i) {
        const UnitStatus &s = units_[i];
        const UnitSpec &u = plan_.units[i];
        os << "  unit " << i << " [" << u.configName << " seed "
           << u.seed << "] " << unitStateName(s.state) << " pos "
           << s.position << "/" << u.txns << " attempts "
           << s.attempts;
        if (!s.note.empty())
            os << " (" << s.note << ")";
        os << "\n";
    }
    return os.str();
}

} // namespace memories::campaign
