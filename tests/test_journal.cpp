/**
 * @file
 * Tests of the crash-safe checkpoint journal (common/journal.hh) and
 * its CRC-32 (common/crc.hh): framing, durability-model recovery
 * (every-byte truncation sweep, corrupt records mid-file, resync on
 * the next newline), and the serializer byte-stability the sweep
 * supervisor's resume byte-identity guarantee rests on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc.hh"
#include "common/diag.hh"
#include "common/journal.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os << bytes;
}

json::Value
record(int i)
{
    json::Value v = json::Value::object();
    v.set("cell", static_cast<std::uint64_t>(i));
    v.set("key", "trace" + std::to_string(i) + "/scheme");
    v.set("status", "OK");
    return v;
}

TEST(Journal, Crc32KnownVector)
{
    // The IEEE check value: CRC-32 of the ASCII digits "123456789".
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string()), 0u);
}

TEST(Journal, Crc32IncrementalMatchesOneShot)
{
    const std::string text = "the quick brown fox jumps over";
    const std::uint32_t whole = crc32(text);
    const std::uint32_t half = crc32(text.data(), 10);
    EXPECT_EQ(crc32(text.data() + 10, text.size() - 10, half), whole);
}

TEST(Journal, LineFraming)
{
    const std::string line = journalLine(record(7));
    ASSERT_GT(line.size(), 15u);
    EXPECT_EQ(line.substr(0, 6), "LRSJ1 ");
    EXPECT_EQ(line[14], ' ');
    EXPECT_EQ(line.back(), '\n');
    const std::string body = line.substr(15, line.size() - 16);
    EXPECT_EQ(body, record(7).dump(0));
    // The CRC field covers exactly the JSON bytes.
    char want[9];
    std::snprintf(want, sizeof(want), "%08x", crc32(body));
    EXPECT_EQ(line.substr(6, 8), want);
}

TEST(Journal, WriteReadRoundtrip)
{
    const std::string path = tmpPath("roundtrip.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w(path);
        for (int i = 0; i < 5; ++i)
            w.append(record(i));
    }
    JournalReadStats st;
    const auto recs = readJournal(path, &st);
    ASSERT_EQ(recs.size(), 5u);
    EXPECT_EQ(st.records, 5u);
    EXPECT_EQ(st.badLines, 0u);
    EXPECT_FALSE(st.truncatedTail);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(recs[i].dump(0), record(i).dump(0));
    std::remove(path.c_str());
}

TEST(Journal, ReopenAppendsAfterExistingRecords)
{
    // The resume path: a second process opens the same journal and
    // keeps appending; nothing already written is disturbed.
    const std::string path = tmpPath("reopen.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w(path);
        w.append(record(0));
        w.append(record(1));
    }
    {
        JournalWriter w(path, /*truncate=*/false);
        w.append(record(2));
    }
    const auto recs = readJournal(path);
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[2].dump(0), record(2).dump(0));
    std::remove(path.c_str());
}

TEST(Journal, TruncateFlagDiscardsStaleRecords)
{
    const std::string path = tmpPath("truncate.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w(path);
        w.append(record(0));
    }
    {
        JournalWriter w(path, /*truncate=*/true);
        w.append(record(9));
    }
    const auto recs = readJournal(path);
    ASSERT_EQ(recs.size(), 1u);
    EXPECT_EQ(recs[0].dump(0), record(9).dump(0));
    std::remove(path.c_str());
}

TEST(Journal, EveryByteTruncationSweepNeverThrows)
{
    // The SIGKILL/power-cut model: the file can end at *any* byte.
    // Whatever the cut point, the reader must return exactly the
    // records whose full lines survived, flag a torn tail, and never
    // throw.
    const std::string path = tmpPath("sweep_full.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w(path);
        for (int i = 0; i < 3; ++i)
            w.append(record(i));
    }
    const std::string bytes = slurp(path);
    std::remove(path.c_str());

    std::vector<std::size_t> lineEnds; // offsets one past each '\n'
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (bytes[i] == '\n')
            lineEnds.push_back(i + 1);
    }
    ASSERT_EQ(lineEnds.size(), 3u);

    const std::string cut = tmpPath("sweep_cut.jsonl");
    for (std::size_t len = 0; len <= bytes.size(); ++len) {
        spit(cut, bytes.substr(0, len));
        JournalReadStats st;
        std::vector<json::Value> recs;
        ASSERT_NO_THROW(recs = readJournal(cut, &st)) << "len=" << len;

        std::size_t complete = 0;
        while (complete < lineEnds.size() &&
               lineEnds[complete] <= len)
            ++complete;
        EXPECT_EQ(recs.size(), complete) << "len=" << len;
        EXPECT_EQ(st.records, complete) << "len=" << len;
        const bool torn =
            len > 0 && (complete == 0 || lineEnds[complete - 1] < len);
        EXPECT_EQ(st.truncatedTail, torn) << "len=" << len;
        for (std::size_t i = 0; i < recs.size(); ++i)
            EXPECT_EQ(recs[i].dump(0), record(static_cast<int>(i)).dump(0));
    }
    std::remove(cut.c_str());
}

TEST(Journal, CorruptCrcMidFileDropsOnlyThatRecord)
{
    const std::string path = tmpPath("corrupt.jsonl");
    std::remove(path.c_str());
    {
        JournalWriter w(path);
        for (int i = 0; i < 3; ++i)
            w.append(record(i));
    }
    std::string bytes = slurp(path);
    // Flip one byte inside the middle record's JSON payload.
    const std::size_t firstNl = bytes.find('\n');
    ASSERT_NE(firstNl, std::string::npos);
    bytes[firstNl + 20] ^= 0x1;
    spit(path, bytes);

    JournalReadStats st;
    const auto recs = readJournal(path, &st);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].dump(0), record(0).dump(0));
    EXPECT_EQ(recs[1].dump(0), record(2).dump(0));
    EXPECT_EQ(st.badLines, 1u);
    EXPECT_GT(st.droppedBytes, 0u);
    EXPECT_FALSE(st.truncatedTail);
    std::remove(path.c_str());
}

TEST(Journal, ForeignLinesAreSkippedWithResync)
{
    const std::string path = tmpPath("foreign.jsonl");
    std::remove(path.c_str());
    std::string bytes;
    bytes += journalLine(record(0));
    bytes += "# a comment some other tool scribbled in\n";
    bytes += "\n";
    bytes += journalLine(record(1));
    spit(path, bytes);

    JournalReadStats st;
    const auto recs = readJournal(path, &st);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[1].dump(0), record(1).dump(0));
    // The empty line and the comment both fail framing.
    EXPECT_EQ(st.badLines, 2u);
    std::remove(path.c_str());
}

TEST(Journal, MissingFileThrowsIoError)
{
    EXPECT_THROW(readJournal(tmpPath("definitely_absent.jsonl")),
                 IoError);
}

TEST(Journal, CompactDumpIsAStableFixpoint)
{
    // Resume byte-identity rests on this: a document that has been
    // through dump(0) once re-emits the exact same bytes after a
    // parse→dump round trip, doubles included.
    json::Value v = json::Value::object();
    v.set("ipc", 1.0 / 3.0);
    v.set("speedup", 1.147000000000001);
    v.set("cycles", std::uint64_t{12793});
    v.set("huge", 1.5e300);
    json::Value arr = json::Value::array();
    arr.push(0.1);
    arr.push(2.0);
    v.set("series", std::move(arr));

    const std::string once = v.dump(0);
    EXPECT_EQ(json::Value::parse(once).dump(0), once);
}

} // namespace
} // namespace lrs
