/**
 * @file
 * Small bit-manipulation helpers used by caches and predictors.
 */

#ifndef LRS_COMMON_BITUTILS_HH
#define LRS_COMMON_BITUTILS_HH

#include <cassert>
#include <cstdint>

namespace lrs
{

/** True iff @p v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** floor(log2(v)) for v >= 1. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v >>= 1)
        ++l;
    return l;
}

/** ceil(log2(v)) for v >= 1. */
constexpr unsigned
ceilLog2(std::uint64_t v)
{
    return isPowerOf2(v) ? floorLog2(v) : floorLog2(v) + 1;
}

/** Mask with the low @p bits bits set. */
constexpr std::uint64_t
mask(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << bits) - 1);
}

/** Extract bits [lo, lo+width) of @p v. */
constexpr std::uint64_t
bits(std::uint64_t v, unsigned lo, unsigned width)
{
    return (v >> lo) & mask(width);
}

/**
 * Fold a 64-bit value down to @p width bits by xoring @p width-bit
 * slices together. Used to index predictor tables with good mixing of
 * high PC bits.
 */
constexpr std::uint64_t
foldXor(std::uint64_t v, unsigned width)
{
    if (width == 0)
        return 0; // single-entry table
    if (width >= 64)
        return v;
    if ((width & (width - 1)) == 0) {
        // The slices tile 64 bits exactly: xor halves together.
        for (unsigned half = 32; half >= width; half >>= 1)
            v ^= v >> half;
        return v & mask(width);
    }
    std::uint64_t r = 0;
    while (v) {
        r ^= v & mask(width);
        v >>= width;
    }
    return r;
}

/**
 * One round of a 64-bit integer hash (Stafford mix13 finalizer).
 * Used where predictor tables need decorrelated indices (e.g. the
 * three gskew banks).
 */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace lrs

#endif // LRS_COMMON_BITUTILS_HH
