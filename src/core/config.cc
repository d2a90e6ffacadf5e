/**
 * @file
 * Whole-machine configuration validation.
 *
 * Every parameter of MachineConfig is checked here in one pass and
 * every violation is reported at once — a user fixing a config file
 * should not have to play whack-a-mole with one error per run. The
 * individual predictor/cache constructors still throw on their own
 * (they can be built stand-alone), but OooCore routes through
 * validateOrThrow() before any subsystem is constructed, so a bad
 * machine never half-builds.
 */

#include "core/config.hh"

#include "common/bitutils.hh"

namespace lrs
{

namespace
{

std::string
got(long long v)
{
    return " (got " + std::to_string(v) + ")";
}

} // namespace

std::vector<Diag>
MachineConfig::validate() const
{
    std::vector<Diag> diags;
    const auto bad = [&](const std::string &param,
                         const std::string &msg) {
        diags.push_back(
            makeDiag(DiagCode::ConfigInvalid, "config", param, msg));
    };

    // Front end and window sizing.
    if (fetchWidth < 1)
        bad("fetch_width", "must be >= 1" + got(fetchWidth));
    if (retireWidth < 1)
        bad("retire_width", "must be >= 1" + got(retireWidth));
    if (robSize < 1)
        bad("rob_size", "must be >= 1" + got(robSize));
    if (regPool < 1)
        bad("reg_pool", "must be >= 1" + got(regPool));
    if (schedWindow < 1) {
        bad("sched_window", "must be >= 1" + got(schedWindow));
    } else if (robSize >= 1 && schedWindow > robSize) {
        bad("sched_window",
            "scheduling window (" + std::to_string(schedWindow) +
                ") cannot exceed the ROB (" + std::to_string(robSize) +
                "): every waiting uop holds a ROB entry");
    }

    // Execution units: a pool of zero units deadlocks the scheduler
    // as soon as a uop of that class reaches the window.
    if (intUnits < 1)
        bad("int_units", "must be >= 1" + got(intUnits));
    if (memUnits < 1)
        bad("mem_units", "must be >= 1" + got(memUnits));
    if (fpUnits < 1)
        bad("fp_units", "must be >= 1" + got(fpUnits));
    if (complexUnits < 1)
        bad("complex_units", "must be >= 1" + got(complexUnits));
    if (stdPorts < 1)
        bad("std_ports", "must be >= 1" + got(stdPorts));

    // Banked-cache pipeline. The per-port free lists are fixed-size
    // arrays of 8; the bank predictors need a power of two (A, B and
    // C predict log2(num_banks) bank-ID bits, none for one bank).
    if (numBanks < 1 || numBanks > 8 || !isPowerOf2(numBanks)) {
        bad("num_banks", "bank count must be a power of two in 1..8" +
                             got(numBanks));
    }
    if (bankMode == BankMode::Sliced && bankPred == BankPredKind::None) {
        bad("bank_pred",
            "the sliced pipeline requires a bank predictor: without "
            "one every load is replicated to every pipe and the mode "
            "degenerates (pick bank_pred A|B|C|addr)");
    }

    // Load-related speculation machinery.
    if (usesCht() || chtShadow) {
        for (Diag &d : cht.validate("config.cht"))
            diags.push_back(std::move(d));
    }
    if (stridePrefetch && (prefetchDegree < 1 || prefetchDegree > 64)) {
        bad("prefetch_degree",
            "prefetch depth must be 1..64 strides" +
                got(prefetchDegree));
    }
    if (mobPartialBits != 0 &&
        (mobPartialBits < 6 || mobPartialBits > 48)) {
        bad("mob_partial_bits",
            "partial comparator width must be 0 (full addresses) or "
            "6..48 bits" +
                got(mobPartialBits));
    }

    // Memory hierarchy geometry.
    for (Diag &d : mem.l1.validate("config.mem.l1"))
        diags.push_back(std::move(d));
    for (Diag &d : mem.l2.validate("config.mem.l2"))
        diags.push_back(std::move(d));

    return diags;
}

void
MachineConfig::validateOrThrow() const
{
    if (auto diags = validate(); !diags.empty())
        throw ConfigError(std::move(diags));
}

} // namespace lrs
