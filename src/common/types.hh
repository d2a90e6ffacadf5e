/**
 * @file
 * Fundamental scalar types shared by every loadsched module.
 *
 * The simulator is cycle driven; all timestamps are expressed in core
 * clock cycles as unsigned 64-bit integers. Memory addresses are linear
 * (flat) 64-bit byte addresses, matching the paper's linear instruction
 * pointer / linear data address terminology.
 */

#ifndef LRS_COMMON_TYPES_HH
#define LRS_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace lrs
{

/** A linear byte address (data or instruction pointer). */
using Addr = std::uint64_t;

/** A point in time or a duration, in core clock cycles. */
using Cycle = std::uint64_t;

/** Dynamic sequence number of a micro-operation within a trace. */
using SeqNum = std::uint64_t;

/** A cycle value meaning "not yet known / never". */
constexpr Cycle kCycleNever = std::numeric_limits<Cycle>::max();

/** An invalid/absent address marker. */
constexpr Addr kAddrInvalid = std::numeric_limits<Addr>::max();

/**
 * The cache bank of @p addr when lines of @p line_bytes are
 * interleaved across @p num_banks banks.
 */
constexpr unsigned
bankOfAddr(Addr addr, unsigned line_bytes, unsigned num_banks)
{
    return static_cast<unsigned>(addr / line_bytes) % num_banks;
}

} // namespace lrs

#endif // LRS_COMMON_TYPES_HH
