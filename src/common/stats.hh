/**
 * @file
 * Fixed-width table printer used by the figure benches to emit
 * paper-style rows, and a printf-style string helper.
 */

#ifndef LRS_COMMON_STATS_HH
#define LRS_COMMON_STATS_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace lrs
{

/**
 * Fixed-width console table: the benches use it to print the same rows
 * and series the paper's figures report.
 *
 * Columns are declared once; rows are added as strings or doubles and
 * the whole table is emitted with aligned columns and a separator rule.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Begin a new row; values are appended with cell()/cellf(). */
    void startRow();
    void cell(const std::string &s);
    void cell(double v, int precision = 3);
    void cellPct(double fraction, int precision = 2);

    /** Render to a stream with aligned columns. */
    void print(std::ostream &os) const;
    std::string toString() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** printf-style helper returning std::string. */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace lrs

#endif // LRS_COMMON_STATS_HH
