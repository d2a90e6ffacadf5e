#include "common/diag.hh"

namespace lrs
{

const char *
diagCodeName(DiagCode code)
{
    switch (code) {
      case DiagCode::ConfigInvalid:       return "E_CONFIG_INVALID";
      case DiagCode::ConfigUnknownKey:    return "E_CONFIG_UNKNOWN_KEY";
      case DiagCode::ConfigSyntax:        return "E_CONFIG_SYNTAX";
      case DiagCode::TraceBadMagic:       return "E_TRACE_BAD_MAGIC";
      case DiagCode::TraceBadHeader:      return "E_TRACE_BAD_HEADER";
      case DiagCode::TraceTruncated:      return "E_TRACE_TRUNCATED";
      case DiagCode::TraceBadRecord:      return "E_TRACE_BAD_RECORD";
      case DiagCode::TraceBudgetExceeded:
        return "E_TRACE_BUDGET_EXCEEDED";
      case DiagCode::TraceLimitExceeded:
        return "E_TRACE_LIMIT_EXCEEDED";
      case DiagCode::IoOpenFailed:        return "E_IO_OPEN_FAILED";
      case DiagCode::IoWriteFailed:       return "E_IO_WRITE_FAILED";
      case DiagCode::AuditViolation:      return "E_AUDIT_VIOLATION";
      case DiagCode::DataInvalid:         return "E_DATA_INVALID";
      case DiagCode::DeadlineExceeded:    return "E_DEADLINE_EXCEEDED";
      case DiagCode::Interrupted:         return "E_INTERRUPTED";
      case DiagCode::JournalInvalid:      return "E_JOURNAL_INVALID";
      case DiagCode::CellCrashed:         return "E_CELL_CRASHED";
      case DiagCode::Internal:            return "E_INTERNAL";
    }
    return "E_UNKNOWN";
}

std::string
Diag::toString() const
{
    std::string s = "[" + component + "] ";
    s += diagCodeName(code);
    if (!param.empty())
        s += " " + param;
    s += ": " + message;
    if (cycle != 0)
        s += " (cycle " + std::to_string(cycle) + ")";
    return s;
}

Diag
makeDiag(DiagCode code, std::string component, std::string param,
         std::string message, std::uint64_t cycle)
{
    Diag d;
    d.code = code;
    d.component = std::move(component);
    d.param = std::move(param);
    d.message = std::move(message);
    d.cycle = cycle;
    return d;
}

std::string
formatDiags(const std::vector<Diag> &diags)
{
    if (diags.empty())
        return "unspecified error";
    std::string s;
    for (std::size_t i = 0; i < diags.size(); ++i) {
        if (i > 0)
            s += "\n";
        s += diags[i].toString();
    }
    if (diags.size() > 1) {
        s += "\n(" + std::to_string(diags.size()) +
             " violations reported)";
    }
    return s;
}

void
throwConfig(std::string component, std::string param,
            std::string message)
{
    throw ConfigError(makeDiag(DiagCode::ConfigInvalid,
                               std::move(component), std::move(param),
                               std::move(message)));
}

} // namespace lrs
