/**
 * @file
 * Crash-safe checkpoint journal for batch sweeps.
 *
 * A journal is an append-only JSONL file: one line per record, each
 * line framed as
 *
 *     LRSJ1 <crc32:8 lowercase hex> <compact JSON object>\n
 *
 * where the CRC-32 covers exactly the JSON bytes. Appends go through a
 * POSIX O_APPEND descriptor as a single write() followed by fsync(),
 * so a record is either durably complete or entirely absent — a
 * SIGKILL (or power cut) mid-sweep can at worst truncate the final
 * line, never interleave or tear earlier ones.
 *
 * The reader is built for exactly that failure model plus plain disk
 * corruption: it validates every line independently (framing, CRC,
 * JSON parse) and *resynchronises on the next newline* when a line is
 * damaged, so a corrupt record in the middle of the file costs that
 * one record, and a truncated tail costs only the torn line. Every
 * drop is counted in JournalReadStats — recovery is silent to the
 * caller's control flow but never to its accounting.
 *
 * The journal stores JSON values, not domain types: the sweep
 * supervisor (core/supervisor.hh) defines the record schema and owns
 * resume semantics. See docs/ROBUSTNESS.md ("Sweep supervisor").
 */

#ifndef LRS_COMMON_JOURNAL_HH
#define LRS_COMMON_JOURNAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hh"

namespace lrs
{

/** Recovery accounting of one readJournal() pass. */
struct JournalReadStats
{
    /** Records that validated (framing + CRC + JSON parse). */
    std::uint64_t records = 0;
    /** Lines dropped: bad framing, CRC mismatch, or unparsable JSON. */
    std::uint64_t badLines = 0;
    /** Bytes discarded with those lines. */
    std::uint64_t droppedBytes = 0;
    /** The file ended mid-line (torn final append). */
    bool truncatedTail = false;
    /** 1-based line number of the first damaged record (0 = none). */
    std::uint64_t firstBadLine = 0;
    /** Byte offset of that line's first byte in the file. */
    std::uint64_t firstBadOffset = 0;
};

/**
 * Append-only journal writer. Records are durable on return from
 * append(): the line is written with one write() on an O_APPEND
 * descriptor and fsync()ed before append() returns. Throws IoError
 * on any failure (open, write, sync) — a checkpoint that may or may
 * not exist is worse than a loud stop.
 */
class JournalWriter
{
  public:
    /**
     * Open @p path for appending, creating it if needed. With
     * @p truncate the file is emptied first (a fresh, non-resumed
     * sweep must not inherit a stale journal's records).
     */
    explicit JournalWriter(std::string path, bool truncate = false);
    ~JournalWriter();

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /** Serialize @p record compactly, frame it, append, fsync. */
    void append(const json::Value &record);

    const std::string &path() const { return path_; }

  private:
    std::string path_;
    int fd_ = -1;
};

/**
 * Read every valid record of the journal at @p path, in file order,
 * resyncing past damaged lines (see file comment). Throws IoError if
 * the file cannot be opened or read at the byte level; content damage
 * is never an exception, only JournalReadStats accounting.
 */
std::vector<json::Value> readJournal(const std::string &path,
                                     JournalReadStats *stats = nullptr);

/**
 * True when the file at @p path opens with the "LRSJ1 " line magic,
 * whatever the state of its records. Never throws (unreadable file ->
 * false).
 */
bool startsWithJournalMagic(const std::string &path);

/** Frame one record line exactly as JournalWriter::append() writes it
 *  (exposed for tests and external tooling). Includes the newline. */
std::string journalLine(const json::Value &record);

} // namespace lrs

#endif // LRS_COMMON_JOURNAL_HH
