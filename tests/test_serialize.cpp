/**
 * @file
 * Tests for binary trace serialisation: round-trip fidelity, header
 * validation, and malformed-input rejection; and the one recovery
 * contract (scanRecords()) run on both record formats.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "trace/champsim_reader.hh"
#include "trace/library.hh"
#include "trace/serialize.hh"
#include "tmp_path.hh"

namespace lrs
{
namespace
{

TEST(Serialize, RoundTripsGeneratedTrace)
{
    auto orig =
        TraceLibrary::make(TraceLibrary::byName("wd", 20000));
    std::stringstream ss;
    writeTrace(ss, *orig);
    auto back = readTrace(ss);

    ASSERT_EQ(back->size(), orig->size());
    EXPECT_EQ(back->name(), orig->name());
    for (std::size_t i = 0; i < orig->size(); ++i) {
        const Uop &a = orig->uops()[i];
        const Uop &b = back->uops()[i];
        ASSERT_EQ(a.pc, b.pc) << i;
        ASSERT_EQ(a.cls, b.cls) << i;
        ASSERT_EQ(a.src1, b.src1) << i;
        ASSERT_EQ(a.src2, b.src2) << i;
        ASSERT_EQ(a.dst, b.dst) << i;
        ASSERT_EQ(a.addr, b.addr) << i;
        ASSERT_EQ(a.memSize, b.memSize) << i;
        ASSERT_EQ(a.taken, b.taken) << i;
    }
}

TEST(Serialize, EmptyTraceRoundTrips)
{
    VecTrace empty("nothing", {});
    std::stringstream ss;
    writeTrace(ss, empty);
    auto back = readTrace(ss);
    EXPECT_EQ(back->size(), 0u);
    EXPECT_EQ(back->name(), "nothing");
}

TEST(Serialize, RejectsBadMagic)
{
    std::stringstream ss;
    ss << "NOTATRACEFILE.............";
    EXPECT_THROW(readTrace(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedStream)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 500));
    std::stringstream ss;
    writeTrace(ss, *orig);
    const std::string full = ss.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(readTrace(cut), std::runtime_error);
}

TEST(Serialize, RejectsCorruptUopClass)
{
    VecTrace t("x", std::vector<Uop>(1));
    std::stringstream ss;
    writeTrace(ss, t);
    std::string bytes = ss.str();
    // The class byte of the first uop sits right after the header
    // and the 8-byte pc.
    const std::size_t cls_off = traceHeaderBytes(t.name()) + 8;
    bytes[cls_off] = 0x7f;
    std::stringstream bad(bytes);
    EXPECT_THROW(readTrace(bad), std::runtime_error);
}

TEST(Serialize, TruncationAtEveryByteOffsetFailsCleanly)
{
    // Cutting the stream at ANY byte must yield a TraceError in
    // strict mode — never a crash, hang, or silently short trace.
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 8));
    std::stringstream ss;
    writeTrace(ss, *orig);
    const std::string full = ss.str();
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
        std::stringstream is(full.substr(0, cut));
        EXPECT_THROW(readTrace(is), TraceError) << "cut at " << cut;
    }
    // The full stream, of course, still reads.
    std::stringstream ok(full);
    EXPECT_EQ(readTrace(ok)->size(), orig->size());
}

TEST(Serialize, TruncatedRecordsRecoverWithAccounting)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 100));
    std::stringstream ss;
    writeTrace(ss, *orig);
    const std::string full = ss.str();
    // Chop mid-record: 10 whole records plus half of the 11th.
    std::stringstream cut(
        full.substr(0, full.size() - 89 * kTraceRecordBytes - 11));
    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    auto back = readTrace(cut, opts, &st);
    EXPECT_LE(back->size(), 10u); // store re-pairing may drop more
    EXPECT_EQ(st.missingRecords, 100u - st.recordsRead);
    EXPECT_EQ(st.truncatedTailBytes, kTraceRecordBytes - 11);
}

TEST(Serialize, RejectsOversizedNameLength)
{
    // Magic + a name length that would dwarf any real stream: the
    // reader must refuse before trying to allocate it.
    std::string bytes = "LRSTRC01";
    const std::uint32_t huge = 0x7fffffffu;
    bytes.append(reinterpret_cast<const char *>(&huge), 4);
    bytes.append(64, 'x');
    std::stringstream ss(bytes);
    EXPECT_THROW(readTrace(ss), TraceError);
}

TEST(Serialize, RejectsCorruptedHeaderEvenInRecoveryMode)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 50));
    std::stringstream ss;
    writeTrace(ss, *orig);
    std::string bytes = ss.str();
    bytes[3] ^= 0xff; // damage the magic
    TraceReadOptions opts;
    opts.recover = true;
    std::stringstream bad(bytes);
    EXPECT_THROW(readTrace(bad, opts), TraceError);
}

TEST(Serialize, RecoverySkipsCorruptRecordAndKeepsFraming)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 200));
    std::stringstream ss;
    writeTrace(ss, *orig);
    std::string bytes = ss.str();
    const std::size_t header = traceHeaderBytes(orig->name());
    // Wreck record 20's class byte in place: framing is preserved.
    bytes[header + 20 * kTraceRecordBytes + 8] = 0x7f;
    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    std::stringstream is(bytes);
    auto back = readTrace(is, opts, &st);
    EXPECT_EQ(st.skippedRecords, 1u);
    EXPECT_EQ(st.resyncBytes, 0u); // no byte-hunt needed
    EXPECT_EQ(st.recordsRead, 199u);
}

TEST(Serialize, RecoveryResyncsAfterInsertedGarbage)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 200));
    std::stringstream ss;
    writeTrace(ss, *orig);
    std::string bytes = ss.str();
    const std::size_t header = traceHeaderBytes(orig->name());
    // Insert garbage BETWEEN records: framing itself is now broken
    // and the reader must slide byte-by-byte to re-lock.
    bytes.insert(header + 10 * kTraceRecordBytes,
                 std::string(7, '\x7f'));
    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    std::stringstream is(bytes);
    auto back = readTrace(is, opts, &st);
    EXPECT_GT(st.resyncBytes, 0u);
    EXPECT_GT(st.recordsRead, 150u);
    EXPECT_GT(back->size(), 150u);
}

TEST(Serialize, RecoveryNeverLeavesHalfAStore)
{
    // Whatever recovery drops, the surviving stream must keep the
    // STA-immediately-followed-by-STD shape the core requires.
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 5000));
    std::stringstream ss;
    writeTrace(ss, *orig);
    std::string bytes = ss.str();
    const std::size_t header = traceHeaderBytes(orig->name());
    for (std::size_t r = 3; r < 5000; r += 97)
        bytes[header + r * kTraceRecordBytes + 8] = 0x7f;
    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    std::stringstream is(bytes);
    auto back = readTrace(is, opts, &st);
    ASSERT_GT(st.skippedRecords, 0u);
    const auto &uops = back->uops();
    for (std::size_t i = 0; i < uops.size(); ++i) {
        if (uops[i].isSta()) {
            ASSERT_LT(i + 1, uops.size()) << "trailing lone STA";
            ASSERT_TRUE(uops[i + 1].isStd()) << "unpaired STA at " << i;
        } else if (uops[i].isStd()) {
            ASSERT_TRUE(i > 0 && uops[i - 1].isSta())
                << "unpaired STD at " << i;
        }
    }
}

TEST(Serialize, FileRoundTrip)
{
    auto orig = TraceLibrary::make(TraceLibrary::byName("li", 5000));
    const std::string path = tmpPath("test_trace.lrstrc");
    writeTraceFile(path, *orig);
    auto back = readTraceFile(path);
    EXPECT_EQ(back->size(), 5000u);
    EXPECT_EQ(back->name(), "li");
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows)
{
    EXPECT_THROW(readTraceFile("/nonexistent/path.lrstrc"),
                 std::runtime_error);
}

TEST(Serialize, HugeHeaderCountDoesNotDriveAllocation)
{
    // A header promising 2^40 records over a 10-record stream: strict
    // mode rejects it, recovery mode keeps the 10 and accounts the
    // rest. Reserving from the count would throw std::length_error or
    // std::bad_alloc instead.
    auto orig = TraceLibrary::make(TraceLibrary::byName("wd", 10));
    std::stringstream ss;
    writeTrace(ss, *orig);
    std::string bytes = ss.str();
    const std::uint64_t huge = std::uint64_t(1) << 40;
    std::memcpy(&bytes[traceHeaderBytes(orig->name()) - 8], &huge, 8);

    std::stringstream strict(bytes);
    EXPECT_THROW(readTrace(strict), TraceError);

    TraceReadOptions opts;
    opts.recover = true;
    TraceReadStats st;
    std::stringstream is(bytes);
    const auto back = readTrace(is, opts, &st);
    EXPECT_EQ(st.recordsRead, 10u);
    EXPECT_EQ(st.missingRecords, huge - 10);
    EXPECT_EQ(st.truncatedTailBytes, 0u);
    EXPECT_LE(back->size(), 10u);
    EXPECT_LE(back->uops().capacity(), 10u);
}

/** A stream buffer that refuses to seek, like a pipe. */
class UnseekableBuf : public std::stringbuf
{
  public:
    using std::stringbuf::stringbuf;

  protected:
    pos_type
    seekoff(off_type, std::ios::seekdir, std::ios::openmode) override
    {
        return pos_type(off_type(-1));
    }
    pos_type
    seekpos(pos_type, std::ios::openmode) override
    {
        return pos_type(off_type(-1));
    }
};

TEST(Serialize, ReadTraceHoldsNoGrowthSlack)
{
    // The decoded uops are the trace's storage for its lifetime, so a
    // read must leave no spare capacity: a seekable source is reserved
    // from its size, and an unseekable one is shrunk after the read.
    auto orig = TraceLibrary::make(TraceLibrary::byName("gcc", 5000));
    std::stringstream ss;
    writeTrace(ss, *orig);

    std::stringstream seekable(ss.str());
    const auto a = readTrace(seekable);
    EXPECT_EQ(a->uops().capacity(), a->size());

    UnseekableBuf buf(ss.str());
    std::istream pipe(&buf);
    const auto b = readTrace(pipe);
    EXPECT_EQ(b->size(), orig->size());
    EXPECT_EQ(b->uops().capacity(), b->size());
}

// ------------------------------------------- one contract, two formats

/**
 * One record format under the shared recovery contract. Its clean
 * records are built so that no window off the record framing passes
 * the plausibility test, which makes the resync accounting exact.
 */
struct FormatCase
{
    const char *name;
    std::size_t recordBytes;
    /** A file of @p n clean records. */
    std::string (*file)(std::size_t n);
    /** Bytes before the first record. */
    std::size_t header;
    /** Read @p bytes under @p opts; returns the accounting. */
    TraceReadStats (*read)(const std::string &bytes,
                           const TraceReadOptions &opts);
};

// gtest would otherwise print the struct's raw bytes, pointers
// included, into each ctest name; under ASLR those change with every
// test discovery. The name keeps them reproducible.
void
PrintTo(const FormatCase &fc, std::ostream *os)
{
    *os << fc.name;
}

const std::string kContractName = "contract";

std::string
nativeFile(std::size_t n)
{
    // All-ones pc and address, no registers: every misaligned window
    // sees an out-of-range class or memSize byte.
    Uop u;
    u.pc = ~std::uint64_t(0);
    u.addr = ~std::uint64_t(0);
    u.cls = UopClass::Load;
    u.memSize = 8;
    std::stringstream ss;
    writeTrace(ss, VecTrace(kContractName, std::vector<Uop>(n, u)));
    return ss.str();
}

TraceReadStats
readNative(const std::string &bytes, const TraceReadOptions &opts)
{
    TraceReadStats st;
    std::istringstream is(bytes);
    (void)readTrace(is, opts, &st);
    return st;
}

std::string
champSimFile(std::size_t n)
{
    // Every byte but is_branch/branch_taken is 7: every misaligned
    // window sees a 7 in one of those two 0/1 fields.
    std::uint8_t rec[kChampSimRecordBytes];
    std::memset(rec, 7, sizeof(rec));
    rec[8] = 0;
    rec[9] = 0;
    std::string s;
    for (std::size_t i = 0; i < n; ++i)
        s.append(reinterpret_cast<const char *>(rec), sizeof(rec));
    return s;
}

TraceReadStats
readChampSim(const std::string &bytes, const TraceReadOptions &opts)
{
    ChampSimReadOptions co;
    co.read = opts;
    TraceReadStats st;
    std::istringstream is(bytes);
    (void)readChampSimTrace(is, "t", co, &st);
    return st;
}

const FormatCase kNative{"Native", kTraceRecordBytes, nativeFile,
                         traceHeaderBytes(kContractName), readNative};
const FormatCase kChampSim{"ChampSim", kChampSimRecordBytes,
                           champSimFile, 0, readChampSim};

class RecoveryContract : public ::testing::TestWithParam<FormatCase>
{
  protected:
    static constexpr std::size_t kRecords = 40;

    /** Byte @p at of record @p r. */
    std::size_t
    at(std::size_t r, std::size_t at = 0) const
    {
        return GetParam().header + r * GetParam().recordBytes + at;
    }

    /** The diag of the TraceError reading @p bytes throws. */
    Diag
    errorOf(const std::string &bytes, const TraceReadOptions &opts)
    {
        try {
            (void)GetParam().read(bytes, opts);
        } catch (const TraceError &e) {
            if (!e.diags().empty())
                return e.diags()[0];
        }
        ADD_FAILURE() << "expected a TraceError";
        return {};
    }

    static TraceReadOptions
    recovering(std::uint64_t budget = ~std::uint64_t(0))
    {
        TraceReadOptions o;
        o.recover = true;
        o.badRecordBudget = budget;
        return o;
    }
};

TEST_P(RecoveryContract, InPlaceCorruptRecord)
{
    // Byte 8 is the class (native) or is_branch (ChampSim) field.
    std::string bytes = GetParam().file(kRecords);
    bytes[at(20, 8)] = 0x7f;
    const Diag strict = errorOf(bytes, {});
    EXPECT_EQ(strict.code, DiagCode::TraceBadRecord);
    EXPECT_EQ(strict.param, "record 20");
    EXPECT_NE(strict.message.find("(byte offset " +
                                  std::to_string(at(20)) + ")"),
              std::string::npos)
        << strict.message;
    const TraceReadStats st = GetParam().read(bytes, recovering());
    EXPECT_EQ(st.recordsRead, kRecords - 1);
    EXPECT_EQ(st.skippedRecords, 1u);
    EXPECT_EQ(st.resyncBytes, 0u);
    EXPECT_EQ(st.truncatedTailBytes, 0u);
}

TEST_P(RecoveryContract, SplicedGarbageBytes)
{
    std::string bytes = GetParam().file(kRecords);
    bytes.insert(at(10), std::string(7, '\x7f'));
    EXPECT_EQ(errorOf(bytes, {}).code, DiagCode::TraceBadRecord);
    const TraceReadStats st = GetParam().read(bytes, recovering());
    EXPECT_EQ(st.recordsRead, kRecords);
    EXPECT_EQ(st.skippedRecords, 1u);
    EXPECT_EQ(st.resyncBytes, 7u);
    EXPECT_EQ(st.truncatedTailBytes, 0u);
}

TEST_P(RecoveryContract, SplicedGarbageAtReadWindowEdge)
{
    // The reader sees the source through a 64 KiB window. Garbage
    // spliced in just before the window's edge must still be judged
    // with the record after it in view.
    const std::size_t edge = (64 * 1024) / GetParam().recordBytes;
    const std::size_t n = 3 * edge;
    const std::string clean = GetParam().file(n);
    for (std::size_t r = edge - 3; r <= edge + 2; ++r) {
        std::string bytes = clean;
        bytes.insert(at(r), std::string(7, '\x7f'));
        const TraceReadStats st = GetParam().read(bytes, recovering());
        EXPECT_EQ(st.recordsRead, n) << "spliced before record " << r;
        EXPECT_EQ(st.skippedRecords, 1u) << "record " << r;
        EXPECT_EQ(st.resyncBytes, 7u) << "record " << r;
    }
}

TEST_P(RecoveryContract, BadRecordBudget)
{
    std::string bytes = GetParam().file(kRecords);
    for (std::size_t r = 0; r < 8; r += 2)
        bytes[at(r, 8)] = 0x7f;
    EXPECT_EQ(errorOf(bytes, recovering(3)).code,
              DiagCode::TraceBudgetExceeded);
    const TraceReadStats st = GetParam().read(bytes, recovering(4));
    EXPECT_EQ(st.recordsRead, kRecords - 4);
    EXPECT_EQ(st.skippedRecords, 4u);
    EXPECT_EQ(st.resyncBytes, 0u);
}

TEST_P(RecoveryContract, TornTail)
{
    std::string bytes = GetParam().file(kRecords);
    bytes.resize(at(25, 5));
    EXPECT_EQ(errorOf(bytes, {}).code, DiagCode::TraceTruncated);
    const TraceReadStats st = GetParam().read(bytes, recovering());
    EXPECT_EQ(st.recordsRead, 25u);
    EXPECT_EQ(st.skippedRecords, 0u);
    EXPECT_EQ(st.resyncBytes, 0u);
    EXPECT_EQ(st.truncatedTailBytes, 5u);
}

INSTANTIATE_TEST_SUITE_P(
    Formats, RecoveryContract, ::testing::Values(kNative, kChampSim),
    [](const ::testing::TestParamInfo<FormatCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
} // namespace lrs
