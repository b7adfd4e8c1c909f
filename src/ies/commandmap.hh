/**
 * @file
 * Foreign-bus support: the interposer card and its command map.
 *
 * Paper section 3: the board "has the ability to plug directly into
 * the 6xx bus of the host machine ... or connect to an interposer card
 * to take measurements from systems with a different bus architecture,
 * such as an Intel X86 platform. Different bus architecture
 * measurements require protocol conversion on the interposer card,
 * reprogramming of the FPGA, or changing the command map file if the
 * protocol is similar."
 *
 * A CommandMap is that command map file: it translates a foreign bus's
 * opcode encodings into 6xx BusOps (or drops them). An InterposerCard
 * owns a CommandMap and replays translated transactions onto a 6xx-side
 * bus that a MemoriesBoard (or any personality) is plugged into.
 */

#ifndef MEMORIES_IES_COMMANDMAP_HH
#define MEMORIES_IES_COMMANDMAP_HH

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "bus/bus6xx.hh"
#include "bus/transaction.hh"
#include "common/types.hh"

namespace memories::ies
{

/** One transaction as observed on a foreign (non-6xx) bus. */
struct ForeignTransaction
{
    /** Raw request encoding on the foreign bus. */
    std::uint32_t opcode = 0;
    Addr addr = 0;
    /** Foreign agent ID (mapped straight onto a 6xx CPU ID). */
    CpuId agent = 0;
    Cycle cycle = 0;
    std::uint16_t size = 32; //!< foreign line size (e.g. P6: 32B)
};

/** Loadable foreign-opcode -> BusOp translation table. */
class CommandMap
{
  public:
    /** What to do with opcodes that have no mapping. */
    enum class UnknownPolicy : std::uint8_t
    {
        Drop,   //!< silently filter (default: be passive about it)
        Fatal,  //!< treat as a configuration error
    };

    CommandMap() = default;

    /** Map @p opcode to @p op. */
    void map(std::uint32_t opcode, bus::BusOp op);

    /** Explicitly drop @p opcode (counts as filtered, not unknown). */
    void drop(std::uint32_t opcode);

    /** Set the unknown-opcode policy. */
    void setUnknownPolicy(UnknownPolicy policy) { unknown_ = policy; }

    /**
     * Translate one opcode.
     * @return the 6xx op, or nullopt when dropped/unknown (per
     *         policy); fatal() on unknown with UnknownPolicy::Fatal.
     */
    std::optional<bus::BusOp> translate(std::uint32_t opcode) const;

    /** Number of mapped (non-drop) opcodes. */
    std::size_t size() const { return mapped_; }

    /**
     * Parse the text command-map format:
     *
     *   # P6-style front-side bus
     *   map 0x00 READ
     *   map 0x01 RWITM
     *   drop 0x1f
     *   unknown drop|fatal
     *
     * fatal() with line numbers on malformed input.
     */
    static CommandMap parse(std::string_view text);

    /** Load a command-map file from disk. */
    static CommandMap load(const std::string &path);

  private:
    struct Entry
    {
        bool dropped = false;
        bus::BusOp op = bus::BusOp::Read;
    };

    std::unordered_map<std::uint32_t, Entry> table_;
    std::size_t mapped_ = 0;
    UnknownPolicy unknown_ = UnknownPolicy::Drop;
};

/**
 * Built-in example map for a Pentium-Pro-style front-side bus: read
 * line, read-invalidate line, write line (cast-out), invalidate line,
 * plus the I/O and interrupt encodings the filter discards.
 */
CommandMap makeP6BusCommandMap();

/** Translation statistics of an interposer card. */
struct InterposerStats
{
    std::uint64_t translated = 0;
    /** Explicit drops, unknown opcodes (Drop policy), and sizes above
     *  bus::maxTransactionSize. */
    std::uint64_t dropped = 0;
    std::uint64_t retriedBy6xxSide = 0;
};

/**
 * The interposer card: translates a foreign transaction stream and
 * replays it on a 6xx-side bus where MemorIES listens.
 */
class InterposerCard
{
  public:
    /**
     * @param bus   The 6xx-side bus the board is plugged into.
     * @param map   Command translation table.
     */
    InterposerCard(bus::Bus6xx &bus, CommandMap map);

    /**
     * Deliver one foreign transaction: translate and, if mapped,
     * issue on the 6xx-side bus at the foreign timestamp. A size a
     * 6xx tenure cannot hold (above bus::maxTransactionSize) is
     * dropped like an unmapped opcode.
     * @return the 6xx-side snoop response (None when dropped).
     */
    bus::SnoopResponse deliver(const ForeignTransaction &txn);

    const InterposerStats &stats() const { return stats_; }
    const CommandMap &commandMap() const { return map_; }

  private:
    bus::Bus6xx &bus_;
    CommandMap map_;
    InterposerStats stats_;
};

} // namespace memories::ies

#endif // MEMORIES_IES_COMMANDMAP_HH
