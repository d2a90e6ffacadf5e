/**
 * @file
 * The micro-operation (uop) model.
 *
 * Following the P6 decomposition described in the paper (section 1.1),
 * a load is a single uop while a store is split into a Store-Address
 * (STA) uop and a Store-Data (STD) uop. The synthetic trace generator
 * always emits the STD immediately after its STA; the core pairs them
 * positionally.
 */

#ifndef LRS_TRACE_UOP_HH
#define LRS_TRACE_UOP_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/types.hh"

namespace lrs
{

/** Micro-operation classes, mapped to execution-unit classes. */
enum class UopClass : std::uint8_t
{
    IntAlu,     ///< single-cycle integer op, runs on an integer unit
    FpAlu,      ///< pipelined FP op, runs on the FP unit
    Complex,    ///< multi-cycle op (mul/div/string...), complex unit
    Load,       ///< memory load, runs on a memory unit (AGU + cache)
    StoreAddr,  ///< STA: store-address computation, memory unit
    StoreData,  ///< STD: store-data move, no execution unit needed
    Branch,     ///< conditional/unconditional branch, integer unit
};

/** Execution-unit pools, one per-cycle free count each at issue. */
enum class UnitPool : std::uint8_t
{
    Int,     ///< integer units (IntAlu, Branch)
    Fp,      ///< FP units
    Complex, ///< complex units
    Mem,     ///< memory pipes (Load, StoreAddr)
    Std,     ///< STD ports
};

constexpr std::size_t kNumUnitPools = 5;

/** The pool a uop of class @p cls issues from. */
constexpr UnitPool
unitPoolOf(UopClass cls)
{
    switch (cls) {
      case UopClass::FpAlu:
        return UnitPool::Fp;
      case UopClass::Complex:
        return UnitPool::Complex;
      case UopClass::Load:
      case UopClass::StoreAddr:
        return UnitPool::Mem;
      case UopClass::StoreData:
        return UnitPool::Std;
      default:
        return UnitPool::Int;
    }
}

/** Number of architectural integer registers (r13 is the stack ptr). */
constexpr int kNumIntRegs = 16;
/** Number of architectural FP registers. */
constexpr int kNumFpRegs = 8;
/** Total architectural registers (int regs first, then FP). */
constexpr int kNumArchRegs = kNumIntRegs + kNumFpRegs;
/** Architectural register index of the stack pointer. */
constexpr int kStackPtrReg = 13;

/** Printable name for a uop class. */
const char *uopClassName(UopClass cls);

/**
 * One dynamic micro-operation of a trace.
 *
 * @c pc is the *static* identity of the uop (its linear instruction
 * pointer); all predictors index by it. Register identifiers are
 * architectural; renaming happens inside the core.
 */
struct Uop
{
    Addr pc = 0;
    // addr follows pc so the six one-byte fields share one 8-byte tail.
    Addr addr = kAddrInvalid; ///< effective address (Load / StoreAddr)
    UopClass cls = UopClass::IntAlu;
    std::int8_t src1 = -1;  ///< first register source, -1 if none
    std::int8_t src2 = -1;  ///< second register source, -1 if none
    std::int8_t dst = -1;   ///< destination register, -1 if none
    std::uint8_t memSize = 0; ///< access size in bytes (Load / StoreAddr)
    bool taken = false;       ///< branch outcome (Branch only)

    bool isLoad() const { return cls == UopClass::Load; }
    bool isSta() const { return cls == UopClass::StoreAddr; }
    bool isStd() const { return cls == UopClass::StoreData; }
    bool isMem() const { return isLoad() || isSta(); }
    bool isBranch() const { return cls == UopClass::Branch; }

    /** Debug rendering, e.g. "LD r3 <- [0x10000040] @pc=0x401000". */
    std::string toString() const;
};

static_assert(sizeof(Uop) == 24, "a trace holds 24 bytes per uop");

} // namespace lrs

#endif // LRS_TRACE_UOP_HH
