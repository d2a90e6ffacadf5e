/**
 * @file
 * Low-level POSIX I/O helpers shared by every durability path.
 *
 * Several layers append whole records to file descriptors — the
 * checkpoint journal, the progress heartbeat stream and the
 * isolated-cell result pipe. Each used to open-code its own write()
 * loop; any copy that forgot EINTR or short-write continuation risked
 * silently truncated records. writeFully() is the one shared
 * discipline: it retries on EINTR and continues partial writes until
 * the buffer is fully on its way or a real error stops it.
 *
 * Whole files that must never be seen half-written — the flight
 * recorder's dump, machine snapshots and the bench JSON that
 * benchutil::Report (bench/bench_util.hh) writes — are published
 * through writeFileAtomically().
 */

#ifndef LRS_COMMON_IO_HH
#define LRS_COMMON_IO_HH

#include <cstddef>
#include <string>
#include <string_view>

namespace lrs
{

/**
 * Write all @p len bytes of @p data to @p fd, retrying interrupted
 * calls (EINTR) and continuing short writes. Returns true when every
 * byte was accepted by the kernel; false on any other error, with
 * errno describing it. Async-signal-safe (calls only write()), so a
 * signal handler may use it on a pre-opened descriptor.
 *
 * Not for non-blocking descriptors under backpressure: EAGAIN is a
 * real error here.
 */
bool writeFully(int fd, const void *data, std::size_t len) noexcept;

inline bool
writeFully(int fd, std::string_view s) noexcept
{
    return writeFully(fd, s.data(), s.size());
}

/**
 * Replace @p path with @p text atomically: write a temp file beside
 * it (named uniquely per process and per call, so concurrent writers
 * never share one), fsync it, then rename() it over @p path. Whatever
 * instant the process dies, @p path holds either its previous
 * contents or @p text, never a mix. On any failure the temp file is
 * unlinked and IoError is thrown, attributed to @p component.
 */
void writeFileAtomically(const std::string &path, std::string_view text,
                         const std::string &component);

} // namespace lrs

#endif // LRS_COMMON_IO_HH
