/**
 * @file
 * Tests for the console's scripting and export commands.
 */

#include "ies/console.hh"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "checkpoint/io.hh"

namespace memories::ies
{
namespace
{

class ConsoleScriptTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = ::testing::TempDir();
    }

    std::string
    writeFile(const std::string &name, const std::string &content)
    {
        const std::string path = dir_ + name;
        std::ofstream out(path);
        out << content;
        return path;
    }

    std::string
    readFile(const std::string &path)
    {
        std::ifstream in(path);
        std::stringstream ss;
        ss << in.rdbuf();
        return ss.str();
    }

    std::string dir_;
};

TEST_F(ConsoleScriptTest, ScriptExecutesAllCommands)
{
    const auto path = writeFile("console.script",
                                "# configure one node\n"
                                "node 0 cache 2MB 4 128B\n"
                                "node 0 cpus 0,1\n"
                                "\n"
                                "init\n");
    bus::Bus6xx bus;
    Console console(bus);
    const auto out = console.execute("script " + path);
    EXPECT_TRUE(console.initialized());
    EXPECT_NE(out.find("board initialized"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(ConsoleScriptTest, ScriptStopsAtFirstError)
{
    const auto path = writeFile("bad.script",
                                "node 0 cache 1KB 4 128B\n"
                                "init\n");
    bus::Bus6xx bus;
    Console console(bus);
    const auto out = console.execute("script " + path);
    EXPECT_NE(out.find("error:"), std::string::npos);
    EXPECT_FALSE(console.initialized()); // init never ran
    std::remove(path.c_str());
}

TEST_F(ConsoleScriptTest, MissingScriptIsAnError)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("script /nonexistent.script")
                  .find("error:"),
              std::string::npos);
}

TEST_F(ConsoleScriptTest, SaveProtocolRoundTrips)
{
    const std::string path = dir_ + "mesi.map";
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("node 0 protocol MOESI");
    const auto reply = console.execute("save-protocol 0 " + path);
    EXPECT_NE(reply.find("MOESI"), std::string::npos);

    const auto table = protocol::loadMapFile(path);
    EXPECT_EQ(table.name(), "MOESI");
    std::remove(path.c_str());
}

TEST_F(ConsoleScriptTest, SaveProtocolAfterInitUsesLiveBoard)
{
    const std::string path = dir_ + "live.map";
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("init");
    console.execute("save-protocol 0 " + path);
    EXPECT_EQ(protocol::loadMapFile(path).name(), "MESI");
    std::remove(path.c_str());
}

TEST_F(ConsoleScriptTest, SaveProtocolBadIndex)
{
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    EXPECT_NE(console.execute("save-protocol 5 /tmp/x.map")
                  .find("error:"),
              std::string::npos);
}

TEST_F(ConsoleScriptTest, ExportCsvWritesNodeRows)
{
    const std::string path = dir_ + "stats.csv";
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0,1");
    console.execute("init");

    bus::BusTransaction txn;
    txn.addr = 0x1000;
    txn.op = bus::BusOp::Read;
    txn.cpu = 0;
    bus.issue(txn);
    console.board()->drainAll();

    console.execute("export-csv " + path);
    const auto csv = readFile(path);
    EXPECT_NE(csv.find("node,refs,hits,misses"), std::string::npos);
    EXPECT_NE(csv.find(",1,0,1,"), std::string::npos); // 1 ref, 1 miss
    std::remove(path.c_str());
}

TEST_F(ConsoleScriptTest, ExportCsvRequiresBoard)
{
    bus::Bus6xx bus;
    Console console(bus);
    EXPECT_NE(console.execute("export-csv /tmp/x.csv").find("error:"),
              std::string::npos);
}

/** Fails every atomic write before a byte lands, like a full disk. */
struct FullDisk final : ckpt::DiskFaultShim
{
    ckpt::DiskFault onAtomicWrite(const std::string &) override
    {
        return {ckpt::DiskFaultKind::NoSpace, 0};
    }
};

TEST_F(ConsoleScriptTest, FailedWritesLeaveTheOldFileByteIdentical)
{
    const auto path = writeFile("full_disk.out", "previous contents\n");
    bus::Bus6xx bus;
    Console console(bus);
    console.execute("node 0 cache 2MB 4 128B");
    console.execute("node 0 cpus 0");
    console.execute("capture 64");
    ASSERT_EQ(console.execute("init").rfind("error:", 0),
              std::string::npos);
    ASSERT_EQ(console.execute("trace start 64").rfind("error:", 0),
              std::string::npos);

    FullDisk fullDisk;
    ckpt::DiskFaultShim *previous = ckpt::setDiskFaultShim(&fullDisk);
    const std::string saved = console.execute("save-protocol 0 " + path);
    const std::string traced = console.execute("trace chrome " + path);
    const std::string dumped = console.execute("trace dump " + path);
    const std::string captured = console.execute("dump-trace " + path);
    ckpt::setDiskFaultShim(previous);

    EXPECT_EQ(saved.rfind("error: ", 0), 0u) << saved;
    EXPECT_EQ(traced.rfind("error: ", 0), 0u) << traced;
    EXPECT_EQ(dumped.rfind("error: ", 0), 0u) << dumped;
    EXPECT_EQ(captured.rfind("error: ", 0), 0u) << captured;
    EXPECT_EQ(readFile(path), "previous contents\n");
    std::remove(path.c_str());
}

} // namespace
} // namespace memories::ies
