#include "common/io.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "common/diag.hh"

namespace lrs
{

bool
writeFully(int fd, const void *data, std::size_t len) noexcept
{
    const char *p = static_cast<const char *>(data);
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::write(fd, p + off, len - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
writeFileAtomically(const std::string &path, std::string_view text,
                    const std::string &component)
{
    static std::atomic<unsigned> counter{0};
    const std::string tmp = path + ".tmp." + std::to_string(::getpid()) +
                            "." + std::to_string(counter.fetch_add(1));
    const auto fail = [&](DiagCode code, const char *what,
                          const std::string &file) {
        const int err = errno;
        ::unlink(tmp.c_str());
        throw IoError(makeDiag(code, component, "path",
                               std::string(what) + ": " + file + " (" +
                                   std::strerror(err) + ")"));
    };
    const int fd =
        ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC,
               0644);
    if (fd < 0)
        fail(DiagCode::IoOpenFailed, "cannot open", tmp);
    // fsync before the rename: rename() orders the directory entry
    // but not the data blocks, so without it a crash right after the
    // rename could leave an empty file under the final name.
    const bool wrote = writeFully(fd, text) && ::fsync(fd) == 0;
    if (::close(fd) != 0 || !wrote)
        fail(DiagCode::IoWriteFailed, "write failed", tmp);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        fail(DiagCode::IoWriteFailed, "rename failed", path);
}

} // namespace lrs
