/**
 * @file
 * Transaction command vocabulary of the 6xx memory bus.
 *
 * These are the commands the MemorIES address-filter FPGA sees when it
 * snoops the host bus. The set is modelled on the PowerPC 6xx bus
 * commands of the S70-class machines: cacheable reads (with or without
 * intent to modify), ownership claims, write-backs, and the non-memory
 * operations (I/O, interrupts, synchronisation) the filter discards.
 */

#ifndef MEMORIES_BUS_BUSOP_HH
#define MEMORIES_BUS_BUSOP_HH

#include <cstdint>
#include <string_view>

namespace memories::bus
{

/** Command type of one 6xx bus transaction. */
enum class BusOp : std::uint8_t
{
    /** Cacheable data read (load miss). */
    Read = 0,
    /** Instruction fetch read. */
    ReadIfetch,
    /** Read With Intent To Modify (store miss fetching exclusive). */
    Rwitm,
    /** Data Claim: upgrade S->M without a data transfer. */
    DClaim,
    /** Cast-out of a modified line (write-back to memory). */
    WriteBack,
    /** Write with kill (full-line DMA-style write, invalidating). */
    WriteKill,
    /** Cache-management flush (dcbf-like). */
    Flush,
    /** Cache-management clean (dcbst-like). */
    Clean,
    /** Line invalidate broadcast (dcbi/kill-like). */
    Kill,
    /** I/O-space register read: filtered by the board. */
    IoRead,
    /** I/O-space register write: filtered by the board. */
    IoWrite,
    /** Interrupt-related bus operation: filtered by the board. */
    Interrupt,
    /** Memory-barrier operation (sync/eieio): filtered by the board. */
    Sync,

    NumOps
};

/** Number of distinct bus commands. */
inline constexpr std::size_t numBusOps =
    static_cast<std::size_t>(BusOp::NumOps);

/** True for commands that reference cacheable memory. */
constexpr bool
isMemoryOp(BusOp op)
{
    switch (op) {
      case BusOp::Read:
      case BusOp::ReadIfetch:
      case BusOp::Rwitm:
      case BusOp::DClaim:
      case BusOp::WriteBack:
      case BusOp::WriteKill:
      case BusOp::Flush:
      case BusOp::Clean:
      case BusOp::Kill:
        return true;
      default:
        return false;
    }
}

/** True for commands that read data from the memory system. */
constexpr bool
isReadOp(BusOp op)
{
    return op == BusOp::Read || op == BusOp::ReadIfetch ||
           op == BusOp::Rwitm;
}

/**
 * True for the processor references a node counts as hits and misses
 * (its miss ratio's denominator): reads, instruction fetches, RWITMs
 * and DClaims, not cast-outs or cache management.
 */
constexpr bool
isReferenceOp(BusOp op)
{
    return isReadOp(op) || op == BusOp::DClaim;
}

/** True for commands that (will) modify the line. */
constexpr bool
isWriteIntentOp(BusOp op)
{
    return op == BusOp::Rwitm || op == BusOp::DClaim ||
           op == BusOp::WriteKill;
}

/** True for commands the address filter discards (non-emulation ops). */
constexpr bool
isFilteredOp(BusOp op)
{
    return !isMemoryOp(op);
}

/** Short mnemonic for tables and traces. */
std::string_view busOpName(BusOp op);

/** Parse a mnemonic produced by busOpName(); fatal() on unknown text. */
BusOp busOpFromName(std::string_view name);

} // namespace memories::bus

#endif // MEMORIES_BUS_BUSOP_HH
