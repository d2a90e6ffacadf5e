#include "stats.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace lrs
{

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::startRow()
{
    rows_.emplace_back();
}

void
TextTable::cell(const std::string &s)
{
    if (rows_.empty())
        startRow();
    rows_.back().push_back(s);
}

void
TextTable::cell(double v, int precision)
{
    cell(strprintf("%.*f", precision, v));
}

void
TextTable::cellPct(double fraction, int precision)
{
    cell(strprintf("%.*f%%", precision, fraction * 100.0));
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths;
    widths.reserve(headers_.size());
    for (const auto &h : headers_)
        widths.push_back(h.size());
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c >= widths.size())
                widths.push_back(0);
            widths[c] = std::max(widths[c], row[c].size());
        }
    }

    auto emit_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &s = c < row.size() ? row[c] : std::string();
            os << (c ? "  " : "");
            os << s;
            for (std::size_t p = s.size(); p < widths[c]; ++p)
                os << ' ';
        }
        os << '\n';
    };

    emit_row(headers_);
    std::size_t rule = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        rule += widths[c] + (c ? 2 : 0);
    for (std::size_t p = 0; p < rule; ++p)
        os << '-';
    os << '\n';
    for (const auto &row : rows_)
        emit_row(row);
}

std::string
TextTable::toString() const
{
    std::ostringstream oss;
    print(oss);
    return oss.str();
}

std::string
strprintf(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
    va_end(ap2);
    return out;
}

} // namespace lrs
