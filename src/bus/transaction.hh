/**
 * @file
 * One transaction as observed on the 6xx bus, and the snoop responses
 * other bus agents can drive in reply.
 */

#ifndef MEMORIES_BUS_TRANSACTION_HH
#define MEMORIES_BUS_TRANSACTION_HH

#include <cstdint>

#include "bus/busop.hh"
#include "checkpoint/codec.hh"
#include "common/logging.hh"
#include "common/types.hh"

namespace memories::bus
{

/**
 * Snoop response lines of the 6xx bus, in increasing priority order.
 * When several agents respond, the bus presents the strongest response.
 */
enum class SnoopResponse : std::uint8_t
{
    /** No agent holds the line. */
    None = 0,
    /** Some agent holds a clean/shared copy. */
    Shared,
    /** Some agent holds the line modified and will intervene. */
    Modified,
    /** An agent cannot service the snoop now: requester must retry. */
    Retry,
};

/** Short mnemonic for a snoop response. */
constexpr const char *
snoopResponseName(SnoopResponse r)
{
    switch (r) {
      case SnoopResponse::None:     return "none";
      case SnoopResponse::Shared:   return "shared";
      case SnoopResponse::Modified: return "modified";
      case SnoopResponse::Retry:    return "retry";
    }
    return "?";
}

/** Combine two snoop responses: the stronger (higher priority) wins. */
constexpr SnoopResponse
combineSnoop(SnoopResponse a, SnoopResponse b)
{
    return static_cast<std::uint8_t>(a) >= static_cast<std::uint8_t>(b)
               ? a : b;
}

/** Largest transfer size a BusTransaction holds (its 15-bit field). */
inline constexpr std::uint16_t maxTransactionSize = (1u << 15) - 1;

/**
 * One address-bus tenure on the 6xx bus: 24 bytes in memory, the 25
 * serialized bytes of saveTransaction() less the flag byte folded into
 * size's top bit. Every stream, ring and slab of tenures holds these.
 */
struct BusTransaction
{
    /** Physical address (byte granularity; the board aligns to lines). */
    Addr addr = 0;
    /** Bus cycle at which the address tenure occurred. */
    Cycle cycle = 0;
    /** Command. */
    BusOp op = BusOp::Read;
    /** Bus ID of the requesting processor. */
    CpuId cpu = 0;
    /**
     * Transfer size in bytes (host L2 line for cacheable ops), at most
     * maxTransactionSize: host lines reach 16 KiB (cache::hostBounds),
     * and the places a size comes in from outside refuse a larger one.
     */
    std::uint16_t size : 15 = 128;
    /** True when this tenure is a retry replay of an earlier one. */
    bool isRetryReplay : 1 = false;
    /**
     * Stable per-tenure trace id, stamped by Bus6xx::issue (1-based; 0
     * means "never issued"). Follows the tenure through capture,
     * transaction buffers and fleet broadcast so lifecycle events from
     * every stage of its life can be correlated (trace/lifecycle.hh).
     * A retry replay gets a fresh id; the replay's BusIssue event
     * carries isRetryReplay so the two tenures remain linkable by
     * address. Last so brace-initialized literals stay unchanged.
     */
    std::uint32_t traceId = 0;
};

static_assert(sizeof(BusTransaction) == 24,
              "a tenure is 24 bytes: every stream and ring holds them");

/** StateCodec: append one tenure to @p sink (fixed 25-byte layout). */
inline void
saveTransaction(ckpt::Sink &sink, const BusTransaction &txn)
{
    sink.u64(txn.addr);
    sink.u64(txn.cycle);
    sink.u8(static_cast<std::uint8_t>(txn.op));
    sink.u8(txn.cpu);
    sink.u16(txn.size);
    sink.u8(txn.isRetryReplay ? 1 : 0);
    sink.u32(txn.traceId);
}

/** StateCodec: decode a tenure written by saveTransaction(); fatal()
 *  on an unknown bus op, a size above maxTransactionSize or a
 *  malformed flag. */
inline BusTransaction
decodeTransaction(ckpt::Source &source)
{
    BusTransaction txn;
    txn.addr = source.u64();
    txn.cycle = source.u64();
    const std::uint8_t op = source.u8();
    if (op >= numBusOps)
        fatal(source.context(), ": unknown bus op ", unsigned{op});
    txn.op = static_cast<BusOp>(op);
    txn.cpu = source.u8();
    const std::uint16_t size = source.u16();
    if (size > maxTransactionSize)
        fatal(source.context(), ": transfer size ", size,
              " exceeds the largest tenure size ", maxTransactionSize);
    txn.size = size;
    const std::uint8_t replay = source.u8();
    if (replay > 1)
        fatal(source.context(), ": retry-replay flag must be 0 or 1");
    txn.isRetryReplay = replay != 0;
    txn.traceId = source.u32();
    return txn;
}

} // namespace memories::bus

#endif // MEMORIES_BUS_TRANSACTION_HH
