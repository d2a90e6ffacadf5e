/**
 * @file
 * Tests for the machine-configuration INI I/O, the lrs_sim config
 * flags and their help, and the shared enum parsers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/parse.hh"
#include "core/config_io.hh"
#include "core/grid.hh"

namespace lrs
{
namespace
{

TEST(ConfigIo, ParsesEveryEnum)
{
    EXPECT_EQ(parseOrderingScheme("exclusive"),
              OrderingScheme::Exclusive);
    EXPECT_EQ(parseOrderingScheme("storebarrier"),
              OrderingScheme::StoreBarrier);
    EXPECT_EQ(parseHmpKind("local+timing"), HmpKind::LocalTiming);
    EXPECT_EQ(parseBankMode("sliced"), BankMode::Sliced);
    EXPECT_EQ(parseBankPredKind("addr"), BankPredKind::Addr);
    EXPECT_EQ(parseChtKind("tagonly"), ChtKind::TagOnly);
    EXPECT_THROW(parseOrderingScheme("bogus"), std::invalid_argument);
    EXPECT_THROW(parseHmpKind("bogus"), std::invalid_argument);
    EXPECT_THROW(parseBankMode("bogus"), std::invalid_argument);
    EXPECT_THROW(parseBankPredKind("bogus"), std::invalid_argument);
    EXPECT_THROW(parseChtKind("bogus"), std::invalid_argument);
}

TEST(ConfigIo, ParsesKeysOnTopOfBase)
{
    std::stringstream ss;
    ss << "# comment\n"
          "scheme = exclusive\n"
          "sched_window = 64   ; trailing comment\n"
          "\n"
          "cht_entries = 512\n"
          "exclusive_spec_forward = true\n";
    const MachineConfig cfg = machineConfigFromIni(ss);
    EXPECT_EQ(cfg.scheme, OrderingScheme::Exclusive);
    EXPECT_EQ(cfg.schedWindow, 64);
    EXPECT_EQ(cfg.cht.entries, 512u);
    EXPECT_TRUE(cfg.exclusiveSpecForward);
    // Untouched fields keep their defaults.
    EXPECT_EQ(cfg.intUnits, 2);
    EXPECT_EQ(cfg.retireWidth, 6);
}

TEST(ConfigIo, RejectsUnknownKey)
{
    std::stringstream ss;
    ss << "warp_drive = on\n";
    EXPECT_THROW(machineConfigFromIni(ss), std::invalid_argument);
}

TEST(ConfigIo, RejectsMalformedLine)
{
    std::stringstream ss;
    ss << "sched_window 64\n";
    EXPECT_THROW(machineConfigFromIni(ss), std::invalid_argument);
}

TEST(ConfigIo, RejectsMalformedValue)
{
    std::stringstream bad_int;
    bad_int << "sched_window = sixty-four\n";
    EXPECT_THROW(machineConfigFromIni(bad_int),
                 std::invalid_argument);
    std::stringstream bad_bool;
    bad_bool << "cht_sticky = maybe\n";
    EXPECT_THROW(machineConfigFromIni(bad_bool),
                 std::invalid_argument);
}

/** Every one of the 39 INI keys set to a valid non-default value. */
MachineConfig
allKeysChanged()
{
    MachineConfig cfg;
    cfg.scheme = OrderingScheme::StoreBarrier;
    cfg.hmp = HmpKind::LocalTiming;
    cfg.bankMode = BankMode::Sliced;
    cfg.bankPred = BankPredKind::Addr;
    cfg.numBanks = 4;
    cfg.schedWindow = 48;
    cfg.robSize = 96;
    cfg.regPool = 100;
    cfg.fetchWidth = 4;
    cfg.retireWidth = 5;
    cfg.intUnits = 3;
    cfg.memUnits = 1;
    cfg.fpUnits = 2;
    cfg.complexUnits = 1;
    cfg.stdPorts = 3;
    cfg.collisionPenalty = 12;
    cfg.mobPartialBits = 12;
    cfg.branchMispredictPenalty = 11;
    cfg.replayBackoff = 4;
    cfg.reschedulePenalty = 7;
    cfg.ahpmPenalty = 6;
    cfg.statsInterval = 5000;
    cfg.collectHistograms = true;
    cfg.auditInterval = 4096;
    cfg.maxCycles = 123456789012;
    cfg.exclusiveSpecForward = true;
    cfg.stridePrefetch = true;
    cfg.prefetchDegree = 3;
    cfg.cht.kind = ChtKind::Combined;
    cfg.cht.entries = 1024;
    cfg.cht.assoc = 2;
    cfg.cht.counterBits = 3;
    cfg.cht.sticky = true;
    cfg.cht.trackDistance = true;
    cfg.cht.clearInterval = 100000;
    cfg.cht.pathBits = 6;
    cfg.mem.l1.sizeBytes = 32 * 1024;
    cfg.mem.l2.sizeBytes = 512 * 1024;
    cfg.mem.memLatency = 99;
    return cfg;
}

TEST(ConfigIo, RoundTripPreservesEverything)
{
    const MachineConfig cfg = allKeysChanged();
    std::stringstream ss(machineConfigToIni(cfg));
    const MachineConfig back = machineConfigFromIni(ss);
    EXPECT_EQ(machineConfigToIni(back), machineConfigToIni(cfg));
}

// Snapshot headers embed this text, so its bytes are a format: key
// order, spelling, enum names and number rendering must not drift.
TEST(ConfigIo, IniTextIsPinned)
{
    EXPECT_EQ(machineConfigToIni(MachineConfig{}),
              "# lrs machine configuration\n"
              "scheme = traditional\n"
              "hmp = always-hit\n"
              "bank_mode = multiported\n"
              "bank_pred = none\n"
              "num_banks = 2\n"
              "sched_window = 32\n"
              "rob_size = 128\n"
              "reg_pool = 128\n"
              "fetch_width = 6\n"
              "retire_width = 6\n"
              "int_units = 2\n"
              "mem_units = 2\n"
              "fp_units = 1\n"
              "complex_units = 2\n"
              "std_ports = 2\n"
              "collision_penalty = 8\n"
              "mob_partial_bits = 0\n"
              "branch_mispredict_penalty = 8\n"
              "replay_backoff = 3\n"
              "reschedule_penalty = 5\n"
              "ahpm_penalty = 5\n"
              "stats_interval = 0\n"
              "collect_histograms = false\n"
              "audit_interval = 0\n"
              "max_cycles = 0\n"
              "exclusive_spec_forward = false\n"
              "stride_prefetch = false\n"
              "prefetch_degree = 2\n"
              "cht_kind = full\n"
              "cht_entries = 2048\n"
              "cht_assoc = 4\n"
              "cht_counter_bits = 2\n"
              "cht_sticky = false\n"
              "cht_track_distance = false\n"
              "cht_clear_interval = 0\n"
              "cht_path_bits = 0\n"
              "l1_bytes = 16384\n"
              "l2_bytes = 262144\n"
              "mem_latency = 45\n");
    EXPECT_EQ(machineConfigToIni(allKeysChanged()),
              "# lrs machine configuration\n"
              "scheme = storebarrier\n"
              "hmp = local+timing\n"
              "bank_mode = sliced\n"
              "bank_pred = addr\n"
              "num_banks = 4\n"
              "sched_window = 48\n"
              "rob_size = 96\n"
              "reg_pool = 100\n"
              "fetch_width = 4\n"
              "retire_width = 5\n"
              "int_units = 3\n"
              "mem_units = 1\n"
              "fp_units = 2\n"
              "complex_units = 1\n"
              "std_ports = 3\n"
              "collision_penalty = 12\n"
              "mob_partial_bits = 12\n"
              "branch_mispredict_penalty = 11\n"
              "replay_backoff = 4\n"
              "reschedule_penalty = 7\n"
              "ahpm_penalty = 6\n"
              "stats_interval = 5000\n"
              "collect_histograms = true\n"
              "audit_interval = 4096\n"
              "max_cycles = 123456789012\n"
              "exclusive_spec_forward = true\n"
              "stride_prefetch = true\n"
              "prefetch_degree = 3\n"
              "cht_kind = combined\n"
              "cht_entries = 1024\n"
              "cht_assoc = 2\n"
              "cht_counter_bits = 3\n"
              "cht_sticky = true\n"
              "cht_track_distance = true\n"
              "cht_clear_interval = 100000\n"
              "cht_path_bits = 6\n"
              "l1_bytes = 32768\n"
              "l2_bytes = 524288\n"
              "mem_latency = 99\n");
}

TEST(ConfigIo, EmptyStreamKeepsBase)
{
    std::stringstream ss;
    MachineConfig base;
    base.schedWindow = 99;
    const MachineConfig cfg = machineConfigFromIni(ss, base);
    EXPECT_EQ(cfg.schedWindow, 99);
}

TEST(ConfigIo, MissingFileThrows)
{
    EXPECT_THROW(machineConfigFromFile("/nonexistent/cfg.ini"),
                 std::invalid_argument);
}

TEST(Parse, TryParseU64IsStrictCanonicalBase10)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(tryParseU64("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(tryParseU64("18446744073709551615", v)); // 2^64-1
    EXPECT_EQ(v, ~std::uint64_t{0});

    // The std::stoull booby traps this helper exists to disarm:
    // "-1" must NOT wrap to 2^64-1, "+1"/whitespace/hex must NOT
    // parse, and overflow must NOT clamp to ULLONG_MAX.
    v = 42;
    EXPECT_FALSE(tryParseU64("-1", v));
    EXPECT_FALSE(tryParseU64("+1", v));
    EXPECT_FALSE(tryParseU64(" 1", v));
    EXPECT_FALSE(tryParseU64("1 ", v));
    EXPECT_FALSE(tryParseU64("1 2", v));
    EXPECT_FALSE(tryParseU64("0x10", v));
    EXPECT_FALSE(tryParseU64("", v));
    EXPECT_FALSE(tryParseU64("18446744073709551616", v)); // 2^64
    EXPECT_FALSE(tryParseU64("99999999999999999999", v));
    EXPECT_EQ(v, 42u); // rejected parses leave the output untouched
}

TEST(Parse, TryParseRateTakesOneNumberInZeroOne)
{
    double v = 0.0;
    EXPECT_TRUE(tryParseRate("0.25", v));
    EXPECT_EQ(v, 0.25);
    EXPECT_TRUE(tryParseRate("1", v));
    EXPECT_EQ(v, 1.0);
    EXPECT_TRUE(tryParseRate("0", v));
    EXPECT_EQ(v, 0.0);

    // Trailing garbage, signs, whitespace, NaN, values outside
    // [0, 1] and overflow are rejected, never read as a nearby rate.
    v = 0.5;
    for (const char *bad : {"0.5abc", "-3", "nan", "7", "1e999", " 0.5",
                            "+0.5", ""}) {
        EXPECT_FALSE(tryParseRate(bad, v)) << "'" << bad << "'";
        EXPECT_EQ(v, 0.5) << "'" << bad << "'";
    }
}

TEST(ConfigIo, IniRejectsSignedWrapAndNonCanonicalIntegers)
{
    // `max_cycles = -1` once parsed as 2^64-1 via std::stoull —
    // "effectively unbounded" instead of a loud ConfigInvalid. A
    // value too wide for a narrower field once wrapped silently:
    // num_banks = 2^32+2 loaded as 2, sched_window = 2^32+16 as 16.
    const std::pair<const char *, const char *> cases[] = {
        {"max_cycles", "-1"},
        {"max_cycles", "+1"},
        {"max_cycles", "0x10"},
        {"max_cycles", "1 2"},
        {"max_cycles", "18446744073709551616"},
        {"num_banks", "4294967298"},
        {"sched_window", "4294967312"},
        {"sched_window", "2147483648"},
    };
    for (const auto &[key, value] : cases) {
        std::stringstream ss;
        ss << key << " = " << value << "\n";
        EXPECT_THROW(machineConfigFromIni(ss), ConfigError)
            << key << " = " << value;
    }
    // Surrounding whitespace is the ini parser's to trim; the value
    // itself must then be canonical digits.
    std::stringstream ok;
    ok << "max_cycles =   123  \n";
    EXPECT_EQ(machineConfigFromIni(ok).maxCycles, 123u);
}

TEST(ConfigIo, GridRejectsSignedWrapIntegers)
{
    for (const char *line :
         {"len = -1", "jobs = +4", "len = 0x10",
          "warmup_snapshot = -5",
          "len = 18446744073709551616"}) {
        std::stringstream ss;
        ss << "traces = wd\n" << line << "\n";
        EXPECT_THROW(parseBatchGrid(ss, "test"), ConfigError)
            << "line: " << line;
    }
    std::stringstream ok;
    ok << "traces = wd\nlen = 5000\nwarmup_snapshot = 1000\n";
    const BatchGrid grid = parseBatchGrid(ok, "test");
    EXPECT_EQ(grid.len, 5000u);
    EXPECT_EQ(grid.warmupSnapshot, 1000u);
}

TEST(ConfigIo, GridConfigLinesLayerOverTheBaseConfig)
{
    MachineConfig base;
    base.schedWindow = 8;
    base.cht.trackDistance = true;
    std::stringstream keeps("traces = wd\n");
    const BatchGrid kept = parseBatchGrid(keeps, "test", base);
    EXPECT_EQ(kept.base.schedWindow, 8u);
    EXPECT_TRUE(kept.base.cht.trackDistance);
    std::stringstream overrides("traces = wd\nsched_window = 64\n");
    EXPECT_EQ(parseBatchGrid(overrides, "test", base).base.schedWindow, 64u);
}

TEST(ConfigIo, GridBaseSchemeNeedsWarmupSnapshot)
{
    // The schemes axis sets every cell's scheme; a base scheme, from
    // the grid's own lines or from the config it starts from, is read
    // only by the warm-up run.
    std::vector<SimJob> jobs;
    std::vector<std::string> keys;
    for (const char *text :
         {"traces = wd\nschemes = traditional\nscheme = perfect\n",
          "traces = wd\nscheme = perfect\n"}) {
        std::stringstream ss(text);
        EXPECT_THROW(buildGridJobs(parseBatchGrid(ss, "test"), jobs, keys),
                     ConfigError)
            << text;
    }
    MachineConfig exclusive;
    exclusive.scheme = OrderingScheme::Exclusive;
    std::stringstream inherits("traces = wd\n");
    EXPECT_THROW(
        buildGridJobs(parseBatchGrid(inherits, "test", exclusive), jobs, keys),
        ConfigError);

    std::stringstream warm("traces = wd\nschemes = traditional\n"
                           "scheme = inclusive\nwarmup_snapshot = 100\n");
    const BatchGrid grid = parseBatchGrid(warm, "test");
    buildGridJobs(grid, jobs, keys);
    EXPECT_EQ(grid.base.scheme, OrderingScheme::Inclusive);
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].cfg.scheme, OrderingScheme::Traditional);
}

TEST(ConfigIo, GridJobsOutOfRangeIsAnErrorNotATruncation)
{
    // 2^32 + 2 parses as a 64-bit integer; cast to unsigned it would
    // load as 2 workers.
    std::stringstream ss;
    ss << "traces = wd\njobs = 4294967298\n";
    try {
        parseBatchGrid(ss, "test");
        ADD_FAILURE() << "jobs = 4294967298 was accepted";
    } catch (const ConfigError &e) {
        EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("out of range"),
                  std::string::npos)
            << e.what();
    }
    std::stringstream ok;
    ok << "traces = wd\njobs = 4294967295\n";
    EXPECT_EQ(parseBatchGrid(ok, "test").jobs, 4294967295u);
}

// The lrs_sim config flags and the INI keys of the fields they set,
// as cli_config_flags_match_ini spells them.
const std::pair<const char *, const char *> kFlagKeys[] = {
    {"--scheme", "scheme"},
    {"--hmp", "hmp"},
    {"--bank-mode", "bank_mode"},
    {"--bank-pred", "bank_pred"},
    {"--banks", "num_banks"},
    {"--window", "sched_window"},
    {"--int", "int_units"},
    {"--mem", "mem_units"},
    {"--cht", "cht_kind"},
    {"--cht-entries", "cht_entries"},
    {"--mob-partial-bits", "mob_partial_bits"},
    {"--max-cycles", "max_cycles"},
    {"--stats-interval", "stats_interval"},
    {"--audit-interval", "audit_interval"},
};

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    for (std::string part; std::getline(ss, part, sep);)
        out.push_back(part);
    return out;
}

/**
 * The spellings INI key @p key accepts, read from the parse error of
 * a bad value; empty when the key is not an enum.
 */
std::vector<std::string>
acceptedSpellings(const std::string &key)
{
    MachineConfig cfg;
    try {
        setMachineConfigKey(cfg, key, "?");
    } catch (const std::invalid_argument &e) {
        const std::string msg = e.what();
        const std::string lead = "' is not one of ";
        const auto at = msg.find(lead);
        if (at == std::string::npos)
            return {};
        return split(msg.substr(at + lead.size()), '|');
    }
    ADD_FAILURE() << key << " accepted '?'";
    return {};
}

/** The words of @p flag's entry in @p help: its line and continuations. */
std::vector<std::string>
helpEntryWords(const std::string &help, const std::string &flag)
{
    const std::string text = "\n" + help;
    auto at = text.find("\n  " + flag + " ");
    if (at == std::string::npos)
        return {};
    std::vector<std::string> words;
    const std::string indent = "\n" + std::string(24, ' ');
    do {
        const auto end = text.find('\n', at + 1);
        std::string line = text.substr(at + 1, end - at - 1);
        for (char &c : line) {
            if (c == '|' || c == ':')
                c = ' ';
        }
        for (const std::string &w : split(line, ' ')) {
            if (!w.empty())
                words.push_back(w);
        }
        at = end;
    } while (at != std::string::npos && text.compare(at, 25, indent) == 0);
    return words;
}

TEST(ConfigFlags, HelpListsEveryFlagAndEverySpelling)
{
    const std::string help = machineConfigFlagHelp();
    std::size_t entries = 0;
    for (const std::string &line : split(help, '\n'))
        entries += line.rfind("  --", 0) == 0;
    EXPECT_EQ(entries, std::size(kFlagKeys)) << help;

    std::size_t enum_rows = 0;
    for (const auto &[flag, key] : kFlagKeys) {
        const std::vector<std::string> words = helpEntryWords(help, flag);
        ASSERT_FALSE(words.empty()) << flag << " missing from\n" << help;
        const std::vector<std::string> spellings = acceptedSpellings(key);
        enum_rows += !spellings.empty();
        for (const std::string &s : spellings) {
            EXPECT_NE(std::find(words.begin(), words.end(), s),
                      words.end())
                << flag << " help does not list '" << s << "'";
        }
    }
    EXPECT_EQ(enum_rows, 5u); // scheme, hmp, bank mode and pred, cht
}

TEST(ConfigFlags, EachFlagSetsTheFieldOfItsIniKey)
{
    const std::string defaults = machineConfigToIni(MachineConfig{});
    for (const auto &[flag, key] : kFlagKeys) {
        EXPECT_TRUE(isMachineConfigFlag(flag)) << flag;
        std::vector<std::string> values = acceptedSpellings(key);
        if (values.empty())
            values = {"3"};
        bool changed = false;
        for (const std::string &v : values) {
            MachineConfig by_flag, by_key;
            setMachineConfigFlag(by_flag, flag, v);
            setMachineConfigKey(by_key, key, v);
            const std::string ini = machineConfigToIni(by_flag);
            EXPECT_EQ(ini, machineConfigToIni(by_key)) << flag << " " << v;
            changed = changed || ini != defaults;
        }
        EXPECT_TRUE(changed) << flag << " set nothing";
    }
    for (const char *other : {"--trace", "--config", "--rob-size",
                              "scheme", "--audit"}) {
        EXPECT_FALSE(isMachineConfigFlag(other)) << other;
        MachineConfig cfg;
        EXPECT_THROW(setMachineConfigFlag(cfg, other, "1"),
                     std::invalid_argument)
            << other;
    }
}

TEST(ConfigValidate, SlicedWithoutBankPredNamesSpellingsTheParserTakes)
{
    MachineConfig cfg;
    cfg.bankMode = BankMode::Sliced;
    const std::vector<Diag> diags = cfg.validate();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].param, "bank_pred");
    const std::string &msg = diags[0].message;
    const std::string lead = "(pick bank_pred ";
    const auto at = msg.find(lead);
    ASSERT_NE(at, std::string::npos) << msg;
    const auto end = msg.find(')', at);
    ASSERT_NE(end, std::string::npos) << msg;
    const std::string named =
        msg.substr(at + lead.size(), end - at - lead.size());
    EXPECT_EQ(named, "A|B|C|addr");
    for (const std::string &s : split(named, '|')) {
        BankPredKind k = BankPredKind::None;
        EXPECT_NO_THROW(k = parseBankPredKind(s)) << s;
        EXPECT_NE(k, BankPredKind::None) << s;
    }
}

} // namespace
} // namespace lrs
