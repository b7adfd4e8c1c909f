#include "host/iobridge.hh"

#include "common/logging.hh"

namespace memories::host
{

IoBridge::IoBridge(const IoBridgeConfig &config, bus::Bus6xx &bus)
    : config_(config), bus_(bus), rng_(config.seed * 0x7f4a7c15u + 3)
{
    if (config.lineBytes > bus::maxTransactionSize)
        fatal("I/O bridge line size ", config.lineBytes,
              " exceeds the largest tenure size ", bus::maxTransactionSize);
    if (config.dmaBytes < config.lineBytes)
        fatal("DMA region smaller than one line");
    if (config.busId < 8)
        warn("I/O bridge bus ID ", static_cast<unsigned>(config.busId),
             " collides with the CPU ID range");
}

void
IoBridge::step()
{
    bus::BusTransaction txn;
    txn.cpu = config_.busId;
    txn.size = config_.lineBytes;

    if (rng_.nextBool(config_.pioFrac)) {
        // Programmed I/O: register access in I/O space; the board's
        // address filter drops these without consuming buffer space.
        txn.op = rng_.nextBool(0.5) ? bus::BusOp::IoRead
                                    : bus::BusOp::IoWrite;
        txn.addr = 0xf000'0000ull + rng_.nextBounded(0x1000);
        ++stats_.pioOps;
        bus_.issue(txn);
        return;
    }

    // Sequential DMA through the buffer region.
    txn.addr = config_.dmaBase + cursor_;
    cursor_ = (cursor_ + config_.lineBytes) % config_.dmaBytes;
    const bool write = rng_.nextBool(config_.writeFrac);
    txn.op = write ? bus::BusOp::WriteKill : bus::BusOp::Read;
    if (write)
        ++stats_.dmaWrites;
    else
        ++stats_.dmaReads;

    // Replay on retry, like any well-behaved bus master.
    for (int attempt = 0; attempt < 100000; ++attempt) {
        if (bus_.issue(txn) != bus::SnoopResponse::Retry)
            return;
        ++stats_.retriesSeen;
        txn.isRetryReplay = true;
        bus_.tick(8);
    }
    MEMORIES_PANIC("I/O bridge livelocked on retries");
}

} // namespace memories::host
