#include "checkpoint/io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"

namespace memories::ckpt
{

namespace
{

DiskFaultShim *shim = nullptr;

/** Directory part of @p path ("." when it has none). */
std::string
dirOf(const std::string &path)
{
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

void
fsyncDir(const std::string &dir)
{
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
        fatal("cannot open directory '", dir,
              "' to fsync it: ", std::strerror(errno));
    }
    // Some filesystems refuse fsync on directories; a failure there
    // is a real durability hole, so it is fatal, not a warning.
    const bool ok = ::fsync(fd) == 0;
    const int saved = errno;
    ::close(fd);
    if (!ok) {
        fatal("fsync of directory '", dir,
              "' failed: ", std::strerror(saved));
    }
}

/** Write + fsync + close @p len bytes to @p path (no rename). */
void
writeAndSync(const std::string &path, const void *data, std::size_t len)
{
    const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                          0644);
    if (fd < 0) {
        fatal("cannot create '", path, "': ", std::strerror(errno));
    }
    const auto *p = static_cast<const unsigned char *>(data);
    std::size_t done = 0;
    while (done < len) {
        const ::ssize_t n = ::write(fd, p + done, len - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int saved = errno;
            ::close(fd);
            fatal("failed writing '", path,
                  "': ", std::strerror(saved));
        }
        done += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int saved = errno;
        ::close(fd);
        fatal("fsync of '", path, "' failed: ", std::strerror(saved));
    }
    if (::close(fd) != 0)
        fatal("close of '", path, "' failed: ", std::strerror(errno));
}

} // namespace

std::string
diskFaultKindName(DiskFaultKind kind)
{
    switch (kind) {
      case DiskFaultKind::None:       return "none";
      case DiskFaultKind::ShortWrite: return "shortwrite";
      case DiskFaultKind::NoSpace:    return "enospc";
      case DiskFaultKind::TornRename: return "tornrename";
      case DiskFaultKind::BitFlip:    return "bitflip";
    }
    return "?";
}

DiskFaultShim *
setDiskFaultShim(DiskFaultShim *next)
{
    DiskFaultShim *prev = shim;
    shim = next;
    return prev;
}

void
atomicWriteFile(const std::string &path, const void *data,
                std::size_t len)
{
    DiskFault fault;
    if (shim)
        fault = shim->onAtomicWrite(path);

    const std::string tmp = path + ".tmp";
    switch (fault.kind) {
      case DiskFaultKind::NoSpace:
        fatal("injected disk fault: no space writing '", path, "'");
      case DiskFaultKind::ShortWrite: {
        // Persist a torn prefix of the temp file, then fail — the
        // destination must survive untouched and readers must ignore
        // the stray .tmp.
        const std::size_t keep = fault.at < len ? fault.at : len / 2;
        writeAndSync(tmp, data, keep);
        fatal("injected disk fault: short write of '", path, "' (",
              keep, " of ", len, " bytes)");
      }
      case DiskFaultKind::TornRename: {
        // The bytes are durable but never published: the crash window
        // between fsync of the temp file and the rename.
        writeAndSync(tmp, data, len);
        fatal("injected disk fault: torn rename of '", path, "'");
      }
      case DiskFaultKind::BitFlip: {
        std::vector<std::uint8_t> corrupt(
            static_cast<const std::uint8_t *>(data),
            static_cast<const std::uint8_t *>(data) + len);
        if (len > 0) {
            const std::size_t bit = fault.at % (len * 8);
            corrupt[bit / 8] ^=
                static_cast<std::uint8_t>(1u << (bit % 8));
        }
        writeAndSync(tmp, corrupt.data(), corrupt.size());
        break;
      }
      case DiskFaultKind::None:
        writeAndSync(tmp, data, len);
        break;
    }

    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        fatal("cannot rename '", tmp, "' over '", path,
              "': ", std::strerror(errno));
    }
    fsyncDir(dirOf(path));
}

std::vector<std::uint8_t>
readFileBytes(const std::string &path, const std::string &what)
{
    // Non-blocking, so that opening a FIFO returns at once and meets
    // the regular-file check instead of waiting for a writer.
    const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
    if (fd < 0)
        fatal("cannot open ", what, " '", path, "'");
    struct ::stat st;
    if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
        ::close(fd);
        fatal(what, " '", path, "' is not a regular file");
    }
    std::vector<std::uint8_t> data;
    data.reserve(static_cast<std::size_t>(st.st_size));
    std::uint8_t buf[1 << 16];
    for (;;) {
        const ::ssize_t got = ::read(fd, buf, sizeof(buf));
        if (got == 0)
            break;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            ::close(fd);
            fatal("failed reading ", what, " '", path, "'");
        }
        data.insert(data.end(), buf, buf + got);
    }
    ::close(fd);
    return data;
}

bool
fileExists(const std::string &path)
{
    struct ::stat st;
    return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

void
removeFileIfExists(const std::string &path)
{
    ::unlink(path.c_str());
}

void
ensureDir(const std::string &path)
{
    if (::mkdir(path.c_str(), 0755) == 0)
        return;
    struct ::stat st;
    if (::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode))
        return;
    fatal("cannot create directory '", path, "'");
}

void
requireWritableDir(const std::string &path)
{
    const std::string dir = dirOf(path);
    if (::access(dir.c_str(), W_OK | X_OK) != 0)
        fatal("cannot write '", path, "': directory '", dir, "': ",
              std::strerror(errno));
}

} // namespace memories::ckpt
