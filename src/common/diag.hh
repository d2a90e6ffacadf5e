/**
 * @file
 * Structured diagnostics.
 *
 * Every error the simulator can report carries a Diag: a machine-
 * readable code, the component that detected it, the offending
 * parameter (when there is one) and an actionable message including
 * the rejected value. Validation routines return *all* violations at
 * once (a user fixing a config file should not play whack-a-mole),
 * and the exception types below carry the full Diag list so front
 * ends can map error classes to distinct exit codes.
 *
 * Exception taxonomy (what a front end should do with each):
 *  - ConfigError: the machine/predictor configuration is invalid.
 *    Derives from std::invalid_argument. Fix the config; exit code 3.
 *  - IoError: a file could not be opened/read/written. Derives from
 *    std::runtime_error; exit code 4.
 *  - TraceError: a trace stream is malformed beyond recovery (bad
 *    header, truncation in strict mode, bad-record budget exhausted).
 *    Derives from IoError; exit code 4.
 *  - AuditError: the invariant auditor found corrupted simulator
 *    state — results cannot be trusted. Derives from
 *    std::runtime_error; exit code 1.
 */

#ifndef LRS_COMMON_DIAG_HH
#define LRS_COMMON_DIAG_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace lrs
{

/** Machine-readable diagnostic classes. */
enum class DiagCode : std::uint8_t
{
    ConfigInvalid,       ///< a parameter value is out of range
    ConfigUnknownKey,    ///< config file references no known key
    ConfigSyntax,        ///< config file line is not "key = value"
    TraceBadMagic,       ///< stream does not start with LRSTRC01
    TraceBadHeader,      ///< implausible name length / header fields
    TraceTruncated,      ///< stream ended mid-record
    TraceBadRecord,      ///< record failed field validation
    TraceBudgetExceeded, ///< recovery skipped more records than allowed
    TraceLimitExceeded,  ///< trace exceeds a hard resource cap
    IoOpenFailed,        ///< cannot open a file
    IoWriteFailed,       ///< write/flush failed
    AuditViolation,      ///< a structural invariant does not hold
    DataInvalid,         ///< a result/aggregation value is unusable
    DeadlineExceeded,    ///< a cycle/wall-clock budget ran out
    Interrupted,         ///< SIGINT/SIGTERM requested a clean stop
    JournalInvalid,      ///< checkpoint journal rejected (grid mismatch)
    CellCrashed,         ///< an isolated sweep cell died abnormally
    Internal,            ///< should-not-happen simulator defect
};

/** Stable identifier string, e.g. "E_CONFIG_INVALID". */
const char *diagCodeName(DiagCode code);

/**
 * One structured diagnostic.
 */
struct Diag
{
    DiagCode code = DiagCode::Internal;
    /** Component that detected the problem, e.g. "pred.cht". */
    std::string component;
    /** Offending parameter, e.g. "entries"; empty when N/A. */
    std::string param;
    /** Actionable message including the offending value. */
    std::string message;
    /** Simulation cycle when applicable (audit diags); 0 otherwise. */
    std::uint64_t cycle = 0;

    /** "[pred.cht] E_CONFIG_INVALID entries: must be ... (got 100)" */
    std::string toString() const;
};

/** Build a Diag in one expression. */
Diag makeDiag(DiagCode code, std::string component, std::string param,
              std::string message, std::uint64_t cycle = 0);

/** Render a list of diags one per line (for exception messages). */
std::string formatDiags(const std::vector<Diag> &diags);

/**
 * Mixin carrying the structured diagnostics of an error. The concrete
 * exception types below multiply inherit from this and the std
 * exception matching their established catch sites.
 */
class DiagnosticError
{
  public:
    virtual ~DiagnosticError() = default;

    const std::vector<Diag> &diags() const { return diags_; }

  protected:
    explicit DiagnosticError(std::vector<Diag> diags)
        : diags_(std::move(diags))
    {
    }

    std::vector<Diag> diags_;
};

/**
 * Invalid machine/predictor/trace-generator configuration. Thrown
 * unconditionally (never compiled out): a bad config in a Release
 * build must fail fast, not silently produce wrong numbers.
 */
class ConfigError : public std::invalid_argument,
                    public DiagnosticError
{
  public:
    explicit ConfigError(std::vector<Diag> diags)
        : std::invalid_argument(formatDiags(diags)),
          DiagnosticError(std::move(diags))
    {
    }

    explicit ConfigError(Diag d)
        : ConfigError(std::vector<Diag>{std::move(d)})
    {
    }
};

/** File-level I/O failure (open/read/write). */
class IoError : public std::runtime_error, public DiagnosticError
{
  public:
    explicit IoError(std::vector<Diag> diags)
        : std::runtime_error(formatDiags(diags)),
          DiagnosticError(std::move(diags))
    {
    }

    explicit IoError(Diag d) : IoError(std::vector<Diag>{std::move(d)})
    {
    }
};

/** Malformed trace content (strict mode or exhausted budget). */
class TraceError : public IoError
{
  public:
    using IoError::IoError;
};

/** The invariant auditor found corrupted simulator state. */
class AuditError : public std::runtime_error, public DiagnosticError
{
  public:
    explicit AuditError(std::vector<Diag> diags)
        : std::runtime_error(formatDiags(diags)),
          DiagnosticError(std::move(diags))
    {
    }
};

/**
 * A deterministic cycle budget (MachineConfig::maxCycles) or the
 * sweep supervisor's wall-clock watchdog expired. Batch runners map
 * this to the TIMEOUT cell outcome instead of treating it as a
 * generic failure — a cell that ran out of budget is recoverable
 * information, not corruption.
 */
class DeadlineError : public std::runtime_error, public DiagnosticError
{
  public:
    explicit DeadlineError(Diag d)
        : std::runtime_error(d.toString()),
          DiagnosticError(std::vector<Diag>{std::move(d)})
    {
    }
};

/**
 * A cooperative cancellation (SIGINT/SIGTERM via
 * requestSweepInterrupt()) unwound the simulation. The sweep
 * supervisor records the cell as not-run so --resume re-executes it;
 * lrs_sim exits with its distinct "interrupted" code.
 */
class InterruptError : public std::runtime_error, public DiagnosticError
{
  public:
    explicit InterruptError(Diag d)
        : std::runtime_error(d.toString()),
          DiagnosticError(std::vector<Diag>{std::move(d)})
    {
    }
};

/**
 * Convenience for constructor parameter checks: throw a single-Diag
 * ConfigError. Used where assert() used to live — unlike assert this
 * is active in every build type.
 */
[[noreturn]] void throwConfig(std::string component, std::string param,
                              std::string message);

} // namespace lrs

#endif // LRS_COMMON_DIAG_HH
