#include "core/config_io.hh"

#include <algorithm>
#include <fstream>
#include <istream>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "common/diag.hh"
#include "common/parse.hh"
#include "common/stats.hh"

namespace lrs
{

namespace
{

constexpr EnumName<OrderingScheme> kSchemeNames[] = {
    {OrderingScheme::Traditional, "traditional", "Traditional"},
    {OrderingScheme::Opportunistic, "opportunistic", "Opportunistic"},
    {OrderingScheme::Postponing, "postponing", "Postponing"},
    {OrderingScheme::Inclusive, "inclusive", "Inclusive"},
    {OrderingScheme::Exclusive, "exclusive", "Exclusive"},
    {OrderingScheme::Perfect, "perfect", "Perfect"},
    {OrderingScheme::StoreBarrier, "storebarrier", "StoreBarrier"},
    {OrderingScheme::StoreSets, "storesets", "StoreSets"},
};

constexpr EnumName<HmpKind> kHmpNames[] = {
    {HmpKind::AlwaysHit, "always-hit", "always-hit"},
    {HmpKind::Local, "local", "local"},
    {HmpKind::Chooser, "chooser", "chooser"},
    {HmpKind::LocalTiming, "local+timing", "local+timing"},
    {HmpKind::Perfect, "perfect", "perfect"},
};

constexpr EnumName<BankMode> kBankModeNames[] = {
    {BankMode::TrueMultiPorted, "multiported", "true-multiported"},
    {BankMode::Conventional, "conventional", "conventional-banked"},
    {BankMode::DualScheduled, "dual", "dual-scheduled"},
    {BankMode::Sliced, "sliced", "sliced-banked"},
};

constexpr EnumName<BankPredKind> kBankPredNames[] = {
    {BankPredKind::None, "none", "none"},
    {BankPredKind::A, "A", "A"},
    {BankPredKind::B, "B", "B"},
    {BankPredKind::C, "C", "C"},
    {BankPredKind::Addr, "addr", "addr"},
};

// The name table of each enum field type, found by overload.
constexpr const auto &namesOf(OrderingScheme) { return kSchemeNames; }
constexpr const auto &namesOf(HmpKind) { return kHmpNames; }
constexpr const auto &namesOf(BankMode) { return kBankModeNames; }
constexpr const auto &namesOf(BankPredKind) { return kBankPredNames; }
constexpr const auto &namesOf(ChtKind) { return kChtKindNames; }

/** The field at the end of a member-pointer path from MachineConfig. */
template <auto... Path>
auto &
member(MachineConfig &c)
{
    return (c .* ... .* Path);
}

template <typename T>
using FieldRef = T &(*)(MachineConfig &);

/**
 * One INI key and the MachineConfig field it reads and writes, and
 * the lrs_sim flag and --help text of the field, if it has a flag.
 */
struct Field
{
    const char *key;
    std::variant<FieldRef<int>, FieldRef<unsigned>,
                 FieldRef<std::uint64_t>, FieldRef<bool>,
                 FieldRef<OrderingScheme>, FieldRef<HmpKind>,
                 FieldRef<BankMode>, FieldRef<BankPredKind>,
                 FieldRef<ChtKind>>
        ref;
    const char *flag = nullptr;
    const char *help = nullptr; ///< an enum's spellings are appended
};

using M = MachineConfig;
using H = HierarchyParams;

// The one description of the INI format, in output order. INI read,
// INI write (and so --dump-config and snapshot headers), grid files
// and the lrs_sim config flags and their --help all go through this
// table.
const Field kFields[] = {
    {"scheme", &member<&M::scheme>, "--scheme", "memory ordering scheme"},
    {"hmp", &member<&M::hmp>, "--hmp", "hit-miss predictor"},
    {"bank_mode", &member<&M::bankMode>,
     "--bank-mode", "memory pipeline organisation"},
    {"bank_pred", &member<&M::bankPred>, "--bank-pred", "bank predictor"},
    {"num_banks", &member<&M::numBanks>,
     "--banks", "cache banks (power of two, <= 8)"},
    {"sched_window", &member<&M::schedWindow>,
     "--window", "scheduling window entries"},
    {"rob_size", &member<&M::robSize>},
    {"reg_pool", &member<&M::regPool>},
    {"fetch_width", &member<&M::fetchWidth>},
    {"retire_width", &member<&M::retireWidth>},
    {"int_units", &member<&M::intUnits>, "--int", "integer units"},
    {"mem_units", &member<&M::memUnits>, "--mem", "memory units"},
    {"fp_units", &member<&M::fpUnits>},
    {"complex_units", &member<&M::complexUnits>},
    {"std_ports", &member<&M::stdPorts>},
    {"collision_penalty", &member<&M::collisionPenalty>},
    {"mob_partial_bits", &member<&M::mobPartialBits>, "--mob-partial-bits",
     "MOB partial-address disambiguation width (0 = full addresses; 6..48 "
     "enables the 4K-alias stall model and the mob.partial_* counters)"},
    {"branch_mispredict_penalty", &member<&M::branchMispredictPenalty>},
    {"replay_backoff", &member<&M::replayBackoff>},
    {"reschedule_penalty", &member<&M::reschedulePenalty>},
    {"ahpm_penalty", &member<&M::ahpmPenalty>},
    {"stats_interval", &member<&M::statsInterval>,
     "--stats-interval", "snapshot interval metrics every N cycles"},
    {"collect_histograms", &member<&M::collectHistograms>},
    {"audit_interval", &member<&M::auditInterval>, "--audit-interval",
     "audit ROB/window/MOB invariants every N cycles (0 = off; --audit "
     "sets 8192)"},
    {"max_cycles", &member<&M::maxCycles>, "--max-cycles",
     "deterministic per-run cycle budget; exceeding it is a TIMEOUT "
     "outcome (0 disables)"},
    {"exclusive_spec_forward", &member<&M::exclusiveSpecForward>},
    {"stride_prefetch", &member<&M::stridePrefetch>},
    {"prefetch_degree", &member<&M::prefetchDegree>},
    {"cht_kind", &member<&M::cht, &ChtParams::kind>, "--cht",
     "CHT organisation"},
    {"cht_entries", &member<&M::cht, &ChtParams::entries>,
     "--cht-entries", "CHT entries"},
    {"cht_assoc", &member<&M::cht, &ChtParams::assoc>},
    {"cht_counter_bits", &member<&M::cht, &ChtParams::counterBits>},
    {"cht_sticky", &member<&M::cht, &ChtParams::sticky>},
    {"cht_track_distance", &member<&M::cht, &ChtParams::trackDistance>},
    {"cht_clear_interval", &member<&M::cht, &ChtParams::clearInterval>},
    {"cht_path_bits", &member<&M::cht, &ChtParams::pathBits>},
    {"l1_bytes", &member<&M::mem, &H::l1, &CacheParams::sizeBytes>},
    {"l2_bytes", &member<&M::mem, &H::l2, &CacheParams::sizeBytes>},
    {"mem_latency", &member<&M::mem, &H::memLatency>},
};

/** The row whose column @p col (key or flag) is @p name, or null. */
const Field *
findRow(const char *Field::*col, std::string_view name)
{
    const auto it = std::find_if(
        std::begin(kFields), std::end(kFields),
        [&](const Field &f) { return f.*col && name == f.*col; });
    return it == std::end(kFields) ? nullptr : it;
}

bool
parseBool(const std::string &v)
{
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    throw std::invalid_argument("not a boolean: " + v);
}

/** Set @p f of @p cfg from its INI spelling @p v. */
void
setField(const Field &f, MachineConfig &cfg, const std::string &v)
{
    std::visit(
        [&](auto ref) {
            auto &field = ref(cfg);
            using T = std::remove_reference_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>)
                field = parseBool(v);
            else if constexpr (std::is_enum_v<T>)
                field = parseEnumName(namesOf(T{}), v);
            else
                field = parseUnsigned<T>(v);
        },
        f.ref);
}

/** The INI spelling of @p f in @p cfg. */
std::string
fieldText(const Field &f, MachineConfig &cfg)
{
    return std::visit(
        [&](auto ref) -> std::string {
            const auto &field = ref(cfg);
            using T = std::remove_cvref_t<decltype(field)>;
            if constexpr (std::is_same_v<T, bool>)
                return field ? "true" : "false";
            else if constexpr (std::is_enum_v<T>)
                return enumName(namesOf(T{}), field).ini;
            else
                return std::to_string(field);
        },
        f.ref);
}

/** The --help entry of flag row @p f; an enum lists its spellings. */
std::string
flagHelp(const Field &f)
{
    std::string text = f.help;
    const char *arg = "N";
    std::visit(
        [&](auto ref) {
            MachineConfig c;
            using T = std::remove_reference_t<decltype(ref(c))>;
            if constexpr (std::is_enum_v<T>) {
                arg = "NAME";
                text += ": " + enumSpellings(namesOf(T{}));
            }
        },
        f.ref);
    return helpEntry(std::string(f.flag) + " " + arg, text);
}

} // namespace

const char *
orderingSchemeName(OrderingScheme s)
{
    return enumName(kSchemeNames, s).display;
}

const char *
hmpKindName(HmpKind k)
{
    return enumName(kHmpNames, k).display;
}

const char *
bankModeName(BankMode m)
{
    return enumName(kBankModeNames, m).display;
}

OrderingScheme
parseOrderingScheme(const std::string &s)
{
    return parseEnumName(kSchemeNames, s);
}

HmpKind
parseHmpKind(const std::string &s)
{
    return parseEnumName(kHmpNames, s);
}

BankMode
parseBankMode(const std::string &s)
{
    return parseEnumName(kBankModeNames, s);
}

BankPredKind
parseBankPredKind(const std::string &s)
{
    return parseEnumName(kBankPredNames, s);
}

ChtKind
parseChtKind(const std::string &s)
{
    return parseEnumName(kChtKindNames, s);
}

void
setMachineConfigKey(MachineConfig &cfg, const std::string &key,
                    const std::string &value)
{
    const Field *f = findRow(&Field::key, key);
    if (!f)
        throw std::invalid_argument("unknown config key: " + key);
    setField(*f, cfg, value);
}

bool
isMachineConfigFlag(std::string_view flag)
{
    return findRow(&Field::flag, flag) != nullptr;
}

void
setMachineConfigFlag(MachineConfig &cfg, std::string_view flag,
                     const std::string &value)
{
    const Field *f = findRow(&Field::flag, flag);
    if (!f) {
        throw std::invalid_argument("unknown config flag: " +
                                    std::string(flag));
    }
    setField(*f, cfg, value);
}

std::string
helpEntry(std::string_view head, std::string_view text)
{
    constexpr std::size_t kTextCol = 24;
    constexpr std::size_t kRoom = 78 - kTextCol;
    std::string out = "  ";
    out.append(head);
    out.append(out.size() < kTextCol ? kTextCol - out.size() : 1, ' ');
    while (text.size() > kRoom) {
        std::size_t cut = kRoom;
        while (cut > 0 && text[cut] != ' ' && text[cut - 1] != '|')
            --cut;
        cut = cut ? cut : kRoom; // one word wider than the column
        out.append(text.substr(0, cut)).append("\n").append(kTextCol, ' ');
        text.remove_prefix(cut + (text[cut] == ' '));
    }
    return out.append(text) + "\n";
}

std::string
machineConfigFlagHelp()
{
    std::string out;
    for (const Field &f : kFields) {
        if (f.flag)
            out += flagHelp(f);
    }
    return out;
}

MachineConfig
machineConfigFromIni(std::istream &is, MachineConfig base)
{
    std::string line;
    int lineno = 0;
    while (std::getline(is, line)) {
        ++lineno;
        const auto comment = line.find_first_of("#;");
        if (comment != std::string::npos)
            line.resize(comment);
        line = trim(line);
        if (line.empty())
            continue;
        const auto eq = line.find('=');
        if (eq == std::string::npos) {
            throw ConfigError(makeDiag(
                DiagCode::ConfigSyntax, "config_io",
                strprintf("line %d", lineno),
                "expected 'key = value', got '" + line + "'"));
        }
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        const Field *f = findRow(&Field::key, key);
        if (!f) {
            throw ConfigError(makeDiag(
                DiagCode::ConfigUnknownKey, "config_io", key,
                strprintf("unknown key at line %d", lineno)));
        }
        try {
            setField(*f, base, value);
        } catch (const std::exception &e) {
            throw ConfigError(makeDiag(
                DiagCode::ConfigInvalid, "config_io", key,
                strprintf("line %d: %s", lineno, e.what())));
        }
    }
    // One pass, all violations: a machine assembled from this file
    // must be buildable, and the user should learn of every bad
    // parameter now rather than one ConfigError per run.
    base.validateOrThrow();
    return base;
}

MachineConfig
machineConfigFromFile(const std::string &path, MachineConfig base)
{
    std::ifstream f(path);
    if (!f) {
        // ConfigError (not IoError): a missing config file is a
        // usage/configuration problem and callers catch it as such.
        throw ConfigError(makeDiag(DiagCode::IoOpenFailed, "config_io",
                                   "path",
                                   "cannot open config: " + path));
    }
    return machineConfigFromIni(f, base);
}

std::string
machineConfigToIni(const MachineConfig &cfg)
{
    MachineConfig c = cfg; // the field accessors take a mutable config
    std::string out = "# lrs machine configuration\n";
    for (const Field &f : kFields)
        out += std::string(f.key) + " = " + fieldText(f, c) + "\n";
    return out;
}

} // namespace lrs
