/**
 * @file
 * Strict unsigned-integer parsing shared by every config surface.
 *
 * The standard library conversions are booby-trapped for config use:
 * std::stoull("-1") does not throw — it wraps to 2^64−1 (the C
 * heritage of strtoull, which negates the magnitude), so an ini line
 * like `max_cycles = -1` silently became "effectively unbounded".
 * strtoull also accepts leading whitespace and a '+' sign, and with
 * errno unchecked it clamps out-of-range input to ULLONG_MAX instead
 * of failing. Three near-copies of that mistake grew in grid.cc,
 * config_io.cc and fault_injector.cc; this header is the one shared
 * discipline that replaces them (and backs envU64 in runner.cc).
 *
 * tryParseU64() accepts exactly the canonical base-10 spelling of an
 * unsigned 64-bit integer: one or more ASCII digits, nothing else.
 * No sign, no whitespace, no hex/octal prefix, no partial consumption,
 * and overflow past 2^64−1 is rejected rather than clamped.
 * parseUnsigned<T>() adds the range check for a narrower field, so a
 * value that does not fit is rejected rather than truncated.
 *
 * tryParseRate() is the same discipline for a probability: a decimal
 * number in [0, 1] and nothing else. std::stod would take "0.5abc" as
 * 0.5 and pass "nan", "-3" and "7" through as rates.
 *
 * EnumName tables give each config enum its spellings in one place:
 * the name config files and CLI flags use, and the display name that
 * results, cell keys and test names use.
 */

#ifndef LRS_COMMON_PARSE_HH
#define LRS_COMMON_PARSE_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace lrs
{

/**
 * Parse @p s as a strict base-10 unsigned 64-bit integer into
 * @p out. Returns false — leaving @p out untouched — unless @p s is
 * entirely ASCII digits and the value fits in 64 bits. Rejects the
 * empty string, leading '-'/'+', whitespace anywhere, and overflow.
 */
bool tryParseU64(std::string_view s, std::uint64_t &out) noexcept;

/**
 * Parse @p s as tryParseU64() does into an integer type T that must
 * hold the value.
 * @throws std::invalid_argument on malformed or out-of-range input.
 */
template <typename T = std::uint64_t>
T
parseUnsigned(std::string_view s)
{
    static_assert(std::is_integral_v<T>);
    std::uint64_t v = 0;
    if (!tryParseU64(s, v)) {
        throw std::invalid_argument("not an unsigned integer: '" +
                                    std::string(s) + "'");
    }
    constexpr auto max =
        static_cast<std::uint64_t>(std::numeric_limits<T>::max());
    if (v > max) {
        throw std::invalid_argument("'" + std::string(s) +
                                    "' is out of range (max " +
                                    std::to_string(max) + ")");
    }
    return static_cast<T>(v);
}

/**
 * Parse @p s as a probability into @p out. Returns false — leaving
 * @p out untouched — unless all of @p s is one decimal number (no
 * sign '+', whitespace or trailing characters) whose value lies in
 * [0, 1]. NaN, infinities and values that overflow are rejected.
 */
bool tryParseRate(std::string_view s, double &out) noexcept;

/**
 * Parse @p s as tryParseRate() does.
 * @throws std::invalid_argument on malformed or out-of-range input.
 */
double parseRate(std::string_view s);

/** @p s without its leading and trailing spaces, tabs and CRs. */
std::string trim(std::string_view s);

/** One row of an enum's name table. */
template <typename E>
struct EnumName
{
    E value;
    const char *ini;     ///< config files and CLI flags
    const char *display; ///< results, cell keys and test names
};

/** The row of @p v in @p names; its names are "?" if it has none. */
template <typename E, std::size_t N>
const EnumName<E> &
enumName(const EnumName<E> (&names)[N], E v)
{
    static constexpr EnumName<E> unknown{E{}, "?", "?"};
    for (const EnumName<E> &n : names) {
        if (n.value == v)
            return n;
    }
    return unknown;
}

/**
 * The spellings parseEnumName() accepts from @p names, joined by '|'
 * ("none|A|B|C|addr"): its error message and the --help text list them.
 */
template <typename E, std::size_t N>
std::string
enumSpellings(const EnumName<E> (&names)[N])
{
    std::string out;
    for (const EnumName<E> &n : names) {
        out += out.empty() ? "" : "|";
        out += n.ini;
    }
    return out;
}

/**
 * The value spelt @p s in @p names.
 * @throws std::invalid_argument listing the accepted spellings.
 */
template <typename E, std::size_t N>
E
parseEnumName(const EnumName<E> (&names)[N], std::string_view s)
{
    for (const EnumName<E> &n : names) {
        if (s == n.ini)
            return n.value;
    }
    throw std::invalid_argument("'" + std::string(s) +
                                "' is not one of " + enumSpellings(names));
}

} // namespace lrs

#endif // LRS_COMMON_PARSE_HH
