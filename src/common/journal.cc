#include "common/journal.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc.hh"
#include "common/diag.hh"
#include "common/io.hh"

namespace lrs
{

namespace
{

constexpr const char *kMagic = "LRSJ1";
constexpr std::size_t kMagicLen = 5;
/** "LRSJ1" + ' ' + 8 hex + ' ' — bytes before the JSON payload. */
constexpr std::size_t kPrefixLen = kMagicLen + 1 + 8 + 1;

std::string
hex8(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

/** Parse exactly 8 lowercase/uppercase hex chars; false on junk. */
bool
parseHex8(const char *s, std::uint32_t &out)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 8; ++i) {
        const char c = s[i];
        v <<= 4;
        if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
        else return false;
    }
    out = v;
    return true;
}

[[noreturn]] void
throwIo(DiagCode code, const std::string &path, const char *what)
{
    throw IoError(makeDiag(code, "common.journal", "path",
                           std::string(what) + ": " + path +
                               (errno ? std::string(" (") +
                                            std::strerror(errno) + ")"
                                      : std::string())));
}

} // namespace

std::string
journalLine(const json::Value &record)
{
    const std::string body = record.dump(0);
    std::string line;
    line.reserve(kPrefixLen + body.size() + 1);
    line += kMagic;
    line += ' ';
    line += hex8(crc32(body));
    line += ' ';
    line += body;
    line += '\n';
    return line;
}

bool
startsWithJournalMagic(const std::string &path)
{
    char head[kMagicLen + 1] = {};
    std::ifstream is(path, std::ios::binary);
    is.read(head, sizeof(head));
    return is.gcount() == static_cast<std::streamsize>(sizeof(head)) &&
           std::memcmp(head, kMagic, kMagicLen) == 0 &&
           head[kMagicLen] == ' ';
}

JournalWriter::JournalWriter(std::string path, bool truncate)
    : path_(std::move(path))
{
    int flags = O_WRONLY | O_CREAT | O_APPEND;
    if (truncate)
        flags |= O_TRUNC;
    errno = 0;
    fd_ = ::open(path_.c_str(), flags, 0644);
    if (fd_ < 0)
        throwIo(DiagCode::IoOpenFailed, path_, "cannot open journal");
}

JournalWriter::~JournalWriter()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
JournalWriter::append(const json::Value &record)
{
    const std::string line = journalLine(record);
    // One writeFully() on an O_APPEND fd: POSIX appends the whole
    // buffer at the (atomically advanced) end of file, so concurrent
    // appenders and a mid-call SIGKILL can tear at most this line,
    // never an earlier one. Short writes are continued; the tail the
    // reader may then see torn is exactly the crash model it resyncs
    // from.
    errno = 0;
    if (!writeFully(fd_, line))
        throwIo(DiagCode::IoWriteFailed, path_, "journal write failed");
    errno = 0;
    if (::fsync(fd_) != 0)
        throwIo(DiagCode::IoWriteFailed, path_, "journal fsync failed");
}

std::vector<json::Value>
readJournal(const std::string &path, JournalReadStats *stats)
{
    std::ifstream is(path, std::ios::binary);
    errno = 0;
    if (!is)
        throwIo(DiagCode::IoOpenFailed, path, "cannot open journal");
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string bytes = buf.str();

    JournalReadStats local;
    JournalReadStats &st = stats ? *stats : local;
    st = JournalReadStats{};

    std::vector<json::Value> out;
    std::size_t pos = 0;
    std::uint64_t lineNo = 0;
    const auto markBad = [&] {
        if (st.firstBadLine == 0) {
            st.firstBadLine = lineNo;
            st.firstBadOffset = pos;
        }
    };
    while (pos < bytes.size()) {
        ++lineNo;
        const std::size_t nl = bytes.find('\n', pos);
        if (nl == std::string::npos) {
            // Torn final append (SIGKILL mid-write): drop the tail.
            st.truncatedTail = true;
            ++st.badLines;
            st.droppedBytes += bytes.size() - pos;
            markBad();
            break;
        }
        const std::size_t len = nl - pos;
        bool ok = false;
        if (len > kPrefixLen &&
            bytes.compare(pos, kMagicLen, kMagic) == 0 &&
            bytes[pos + kMagicLen] == ' ' &&
            bytes[pos + kPrefixLen - 1] == ' ') {
            std::uint32_t want = 0;
            if (parseHex8(bytes.data() + pos + kMagicLen + 1, want)) {
                const char *body = bytes.data() + pos + kPrefixLen;
                const std::size_t bodyLen = len - kPrefixLen;
                if (crc32(body, bodyLen) == want) {
                    try {
                        out.push_back(json::Value::parse(
                            std::string(body, bodyLen)));
                        ok = true;
                    } catch (const json::ParseError &) {
                        // CRC-valid but unparsable: treated as damage
                        // (a foreign writer or a defect, not our
                        // crash model) — drop and resync.
                    }
                }
            }
        }
        if (ok) {
            ++st.records;
        } else {
            ++st.badLines;
            st.droppedBytes += len + 1;
            markBad();
        }
        pos = nl + 1;
    }
    return out;
}

} // namespace lrs
