#include "common/parse.hh"

#include <charconv>
#include <system_error>

namespace lrs
{

bool
tryParseU64(std::string_view s, std::uint64_t &out) noexcept
{
    if (s.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return false;
        const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (v > (UINT64_MAX - digit) / 10)
            return false; // would overflow 2^64-1: reject, not clamp
        v = v * 10 + digit;
    }
    out = v;
    return true;
}

bool
tryParseRate(std::string_view s, double &out) noexcept
{
    double v = 0.0;
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, v);
    // The negated comparison also rejects NaN.
    if (ec != std::errc() || ptr != end || !(v >= 0.0 && v <= 1.0))
        return false;
    out = v;
    return true;
}

double
parseRate(std::string_view s)
{
    double v = 0.0;
    if (!tryParseRate(s, v)) {
        throw std::invalid_argument("not a rate in [0, 1]: '" +
                                    std::string(s) + "'");
    }
    return v;
}

std::string
trim(std::string_view s)
{
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string_view::npos)
        return "";
    return std::string(s.substr(b, s.find_last_not_of(" \t\r") - b + 1));
}

} // namespace lrs
