/**
 * @file
 * IESCKPT: the versioned binary checkpoint container (docs/FORMATS.md
 * §7).
 *
 * Layout (all integers little-endian):
 *
 *   magic   "IESCKPT\0"                                   8 bytes
 *   u32     version (currently 1)
 *   u32     section count
 *   u64     fingerprint: the board-config fingerprint
 *           (BoardConfig::fingerprint, which folds in every node's
 *           ProtocolTable::fingerprint; a campaign unit result carries
 *           its unit's), a campaign manifest's plan fingerprint, or 0
 *           for a lifecycle dump or a bus trace
 *   u32     header CRC-32 over the 24 bytes above
 *   -- section table, one entry per section --
 *   u32     section id        u32  payload CRC-32
 *   u64     payload offset    u64  payload length
 *   u32     table CRC-32 over all table entries
 *   -- section payloads, back to back in table order --
 *
 * Section payloads are opaque StateCodec streams produced by each
 * component's saveState(Sink&); the container only frames and
 * checksums them. The payloads tile the rest of the file: the first
 * starts right after the table CRC, each next one where the previous
 * ends, and the last ends at the end of the file, so no byte of a
 * valid file lies outside the CRCs. CheckpointImage validates magic,
 * version, both structural CRCs, that tiling and every section CRC
 * *before* handing out a single payload byte, so a component loadState
 * never sees corrupt framing — restores fail closed with a diagnostic
 * and the target board is left untouched.
 *
 * Every binary file the program writes whole and reads back uses this
 * container: board checkpoints, suspended IESSERV sessions (the
 * board's sections plus a session section and one section per twin
 * board), IESCAMP campaign manifests and unit results, captured bus
 * traces and flight-recorder lifecycle dumps (docs/FORMATS.md §3,
 * §6-8).
 */

#ifndef MEMORIES_CHECKPOINT_FILE_HH
#define MEMORIES_CHECKPOINT_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "checkpoint/codec.hh"

namespace memories::ckpt
{

/** File format version this build writes and reads. */
inline constexpr std::uint32_t formatVersion = 1;

/** Well-known section ids. */
enum SectionId : std::uint32_t
{
    /** Board meta: node count, global counters, pending tenure. */
    secBoard = 0x01,
    /** TransactionBuffer: ring, credits, fault pacing state. */
    secBuffer = 0x02,
    /** HealthMonitor: ladder state and backoff counters. */
    secHealth = 0x03,
    /** FaultInjector: RNG stream and opportunity counters. */
    secInjector = 0x04,
    /** Suspended session: name, stream scalars, twin roster, config. */
    secSession = 0x10,
    /** Campaign manifest: the sequence number of the rewrite. */
    secCampaignSequence = 0x20,
    /** Campaign manifest: the CampaignPlan. */
    secCampaignPlan = 0x21,
    /** Campaign manifest: every unit's status, in plan order. */
    secCampaignUnits = 0x22,
    /** Campaign unit result: digests and counters of one unit. */
    secCampaignResult = 0x23,
    /** Lifecycle dump: event count, then five words per event. */
    secLifecycle = 0x30,
    /** Bus trace: dropped count, record count, packed records. */
    secBusTrace = 0x31,
    /** NodeController n: secNodeBase + n (directory, counters, RNGs). */
    secNodeBase = 0x100,
    /** Session twin board n: secTwinBase + n, the twin's own IESCKPT
     *  container bytes (node ids end below it: NodeId is 8 bits). */
    secTwinBase = 0x200,
};

/** Human-readable name of a section id ("ckpt info"). */
std::string sectionName(std::uint32_t id);

/** Accumulates sections and renders/writes the IESCKPT container. */
class CheckpointWriter
{
  public:
    /**
     * Open section @p id and return its payload sink. Sections are
     * written in call order; ids must be unique within one file.
     */
    Sink &section(std::uint32_t id);

    /** Render the complete container. */
    std::vector<std::uint8_t> bytes(std::uint64_t config_fingerprint)
        const;

    /**
     * Render and durably write to @p path via io.hh's atomic
     * temp-file + fsync + rename primitive: fatal() on I/O failure,
     * and a failed save never clobbers or truncates an existing
     * checkpoint at @p path.
     */
    void writeFile(const std::string &path,
                   std::uint64_t config_fingerprint) const;

  private:
    struct Entry
    {
        std::uint32_t id;
        Sink sink;
    };
    std::vector<Entry> sections_;
};

/** A parsed, CRC-verified checkpoint held in memory. */
class CheckpointImage
{
  public:
    /**
     * Parse @p data, validating magic, version, header/table CRCs,
     * that the payloads tile the file, and every section CRC.
     * @p context names the file in diagnostics. fatal() on any
     * violation.
     */
    static CheckpointImage fromBytes(std::vector<std::uint8_t> data,
                                     const std::string &context);

    /** Read and parse @p path; fatal() on I/O or format errors. */
    static CheckpointImage fromFile(const std::string &path);

    std::uint64_t configFingerprint() const { return fingerprint_; }

    bool has(std::uint32_t id) const;

    /**
     * Sequential Source over section @p id's payload, tagged
     * "<context>: <section name>". fatal() when the section is absent.
     */
    Source open(std::uint32_t id) const;

    /** Section ids in file order ("ckpt info", structural tests). */
    const std::vector<std::uint32_t> &sectionIds() const { return ids_; }

    /** Payload length of section @p id; fatal() when absent. */
    std::size_t sectionLength(std::uint32_t id) const;

    /** Multi-line human rendering (console "ckpt info"). */
    std::string describe() const;

  private:
    CheckpointImage() = default;

    struct Section
    {
        std::uint32_t id;
        std::size_t offset;
        std::size_t length;
    };
    const Section &find(std::uint32_t id) const;

    std::vector<std::uint8_t> data_;
    std::vector<Section> sections_;
    std::vector<std::uint32_t> ids_;
    std::uint64_t fingerprint_ = 0;
    std::string context_;
};

} // namespace memories::ckpt

#endif // MEMORIES_CHECKPOINT_FILE_HH
