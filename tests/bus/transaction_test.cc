/**
 * @file
 * BusTransaction's serialized form: saveTransaction() writes the same
 * 25 bytes whatever the struct's in-memory layout, decodeTransaction()
 * reads them back, and a size the 15-bit field cannot hold is refused.
 */

#include "bus/transaction.hh"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/logging.hh"

namespace memories::bus
{
namespace
{

/** Every field away from its default, addr and cycle above 2^32. */
BusTransaction
everyFieldSet()
{
    BusTransaction txn;
    txn.addr = 0x0000'00ab'cdef'1280ull;
    txn.cycle = 0x0000'0012'3456'789aull;
    txn.op = BusOp::Kill;
    txn.cpu = 15;
    txn.size = 1024;
    txn.isRetryReplay = true;
    txn.traceId = 0xdeadbeef;
    return txn;
}

BusTransaction
decode(const std::vector<std::uint8_t> &bytes)
{
    ckpt::Source source(bytes.data(), bytes.size(), "test tenure");
    return decodeTransaction(source);
}

TEST(TransactionTest, SerializedBytesArePinned)
{
    ckpt::Sink sink;
    saveTransaction(sink, everyFieldSet());
    const std::vector<std::uint8_t> want = {
        0x80, 0x12, 0xef, 0xcd, 0xab, 0x00, 0x00, 0x00, // addr
        0x9a, 0x78, 0x56, 0x34, 0x12, 0x00, 0x00, 0x00, // cycle
        0x08,                                           // op: Kill
        0x0f,                                           // cpu
        0x00, 0x04,                                     // size
        0x01,                                           // retry replay
        0xef, 0xbe, 0xad, 0xde,                         // traceId
    };
    EXPECT_EQ(sink.bytes(), want);

    const BusTransaction back = decode(sink.bytes());
    const BusTransaction txn = everyFieldSet();
    EXPECT_EQ(back.addr, txn.addr);
    EXPECT_EQ(back.cycle, txn.cycle);
    EXPECT_EQ(back.op, txn.op);
    EXPECT_EQ(back.cpu, txn.cpu);
    EXPECT_EQ(back.size, txn.size);
    EXPECT_EQ(back.isRetryReplay, txn.isRetryReplay);
    EXPECT_EQ(back.traceId, txn.traceId);
}

TEST(TransactionTest, PositionalInitializersKeepTheirMeaning)
{
    const BusTransaction txn{0x1000, 7, BusOp::Rwitm, 3, 64, true, 9};
    EXPECT_EQ(txn.addr, 0x1000u);
    EXPECT_EQ(txn.cycle, 7u);
    EXPECT_EQ(txn.op, BusOp::Rwitm);
    EXPECT_EQ(txn.cpu, 3u);
    EXPECT_EQ(txn.size, 64u);
    EXPECT_TRUE(txn.isRetryReplay);
    EXPECT_EQ(txn.traceId, 9u);
}

TEST(TransactionTest, DecodeRefusesASizeNoTenureHolds)
{
    BusTransaction txn = everyFieldSet();
    txn.size = maxTransactionSize;
    ckpt::Sink sink;
    saveTransaction(sink, txn);
    EXPECT_EQ(decode(sink.bytes()).size, maxTransactionSize);

    // Bytes 18..19 hold the size: 0x8000 is one past the field.
    std::vector<std::uint8_t> bytes = sink.bytes();
    bytes[18] = 0x00;
    bytes[19] = 0x80;
    try {
        decode(bytes);
        FAIL() << "a 32768-byte tenure decoded";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("transfer size 32768"),
                  std::string::npos)
            << e.what();
    }
}

} // namespace
} // namespace memories::bus
