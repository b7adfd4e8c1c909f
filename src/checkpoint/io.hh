/**
 * @file
 * Durable file I/O for checkpoint, session and campaign state, with a
 * deterministic disk-fault injection shim.
 *
 * Every durable artifact in the tree — IESCKPT containers (board
 * checkpoints, suspended sessions, campaign manifests and unit
 * results, bus traces, lifecycle dumps) and the console's exports —
 * goes through one primitive, and a state file is written by exactly
 * one call of it:
 *
 *   atomicWriteFile(path, data, len)
 *
 * which writes `<path>.tmp`, fsync()s the data, rename()s over the
 * destination, and fsync()s the containing directory. The contract the
 * crash-tolerance tests lean on: *the previous file at @p path is
 * byte-identical after any failure* — a short write, a full disk, a
 * crash between fsync and rename, or a process kill at any instruction
 * leaves either the old complete file or the new complete file, never
 * a torn hybrid. Readers may find a stale `.tmp` beside a valid file
 * (a crash mid-write); they must ignore it.
 *
 * Only the telemetry streams do not go through it: JSON Lines files
 * are appended window by window while a run goes on, and the daemon's
 * metrics.prom is truncated and rewritten each window. They are
 * neither atomic nor seen by the shim.
 *
 * The DiskFaultShim makes every failure path exercisable on a healthy
 * disk. When installed, each atomicWriteFile() call first asks the
 * shim what to inject:
 *
 *   ShortWrite  - persist only the first `at` bytes of the temp file,
 *                 then fail (fatal) leaving the torn temp behind.
 *   NoSpace     - fail before a single byte is written (ENOSPC).
 *   TornRename  - persist and fsync the full temp file but fail
 *                 before the rename — the crash window between
 *                 making bytes durable and publishing them.
 *   BitFlip     - silently flip bit (at % (8*len)) in the payload and
 *                 complete the write: latent corruption for the CRC
 *                 layers above to catch on the next read.
 *
 * The shim is process-global (set it only in single-threaded test or
 * driver setup) and may also throw from onAtomicWrite() to simulate a
 * crash *between* durable operations — the campaign crash-point sweep
 * does exactly that at every operation index.
 */

#ifndef MEMORIES_CHECKPOINT_IO_HH
#define MEMORIES_CHECKPOINT_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace memories::ckpt
{

/** What to inject into one atomicWriteFile() call. */
enum class DiskFaultKind : std::uint8_t
{
    None = 0,
    ShortWrite,
    NoSpace,
    TornRename,
    BitFlip,
};

/** Mnemonic for a fault kind ("shortwrite", ...). */
std::string diskFaultKindName(DiskFaultKind kind);

/** One injected fault; `at` is a byte offset (ShortWrite) or bit
 *  index modulo the payload (BitFlip). */
struct DiskFault
{
    DiskFaultKind kind = DiskFaultKind::None;
    std::size_t at = 0;
};

/**
 * Test/driver hook consulted once per atomicWriteFile() call, before
 * any byte touches the disk. May throw to simulate a crash between
 * durable operations.
 */
class DiskFaultShim
{
  public:
    virtual ~DiskFaultShim() = default;

    /** @param path Destination of the write about to happen. */
    virtual DiskFault onAtomicWrite(const std::string &path) = 0;
};

/** Install @p shim (nullptr to clear). Returns the previous shim. */
DiskFaultShim *setDiskFaultShim(DiskFaultShim *shim);

/**
 * Durably replace the file at @p path with @p len bytes of @p data:
 * write `<path>.tmp`, fsync, rename over @p path, fsync the directory.
 * fatal() on any failure (including injected faults), leaving any
 * previous file at @p path untouched.
 */
void atomicWriteFile(const std::string &path, const void *data,
                     std::size_t len);

/**
 * Read the whole file at @p path; fatal() (naming @p what) when it is
 * missing, unreadable or not a regular file (a device or a pipe may
 * never end: /dev/zero would read until memory runs out).
 */
std::vector<std::uint8_t> readFileBytes(const std::string &path,
                                        const std::string &what);

/** True when a regular file exists at @p path. */
bool fileExists(const std::string &path);

/** Best-effort unlink (absent files and errors are ignored). */
void removeFileIfExists(const std::string &path);

/** Create directory @p path (one level); ok when it already exists. */
void ensureDir(const std::string &path);

/**
 * fatal() unless the directory @p path lies in is writable. A file
 * written later (a results file after the timed sections, a dump at an
 * anomaly) fails at once on a mistyped path instead of at that point.
 */
void requireWritableDir(const std::string &path);

} // namespace memories::ckpt

#endif // MEMORIES_CHECKPOINT_IO_HH
