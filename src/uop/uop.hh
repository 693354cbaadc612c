/**
 * @file
 * Internal micro-op (uop) definitions.
 *
 * Micro-ops are the RISC-like internal operations the decoders emit.
 * They address architectural registers plus a small set of
 * decoder-temporary registers (t0-t7 integer, vt0-vt3 vector) that are
 * invisible to software — decoy micro-ops and devectorized flows live
 * entirely in this space, which is what makes them unreadable from both
 * user and kernel mode (paper §I).
 */

#ifndef CSD_UOP_UOP_HH
#define CSD_UOP_UOP_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/types.hh"
#include "isa/macroop.hh"
#include "isa/registers.hh"

namespace csd
{

/** Register classes addressable by micro-ops. */
enum class RegClass : std::uint8_t
{
    Int,    //!< GPRs 0-15, decoder temporaries 16-23
    Vec,    //!< XMMs 0-15, decoder temporaries 16-19
    Flags,  //!< the single RFLAGS register
    None,
};

/** Number of integer decoder-temporary registers. */
constexpr unsigned numIntTemps = 8;
/** Number of vector decoder-temporary registers. */
constexpr unsigned numVecTemps = 4;

constexpr unsigned numIntUopRegs = numGprs + numIntTemps;
constexpr unsigned numVecUopRegs = numXmms + numVecTemps;

/** A micro-op register identifier. */
struct RegId
{
    RegClass cls = RegClass::None;
    std::uint8_t idx = 0;

    constexpr RegId() = default;
    constexpr RegId(RegClass c, std::uint8_t i) : cls(c), idx(i) {}

    constexpr bool valid() const { return cls != RegClass::None; }
    constexpr bool isIntTemp() const
    {
        return cls == RegClass::Int && idx >= numGprs;
    }
    constexpr bool isVecTemp() const
    {
        return cls == RegClass::Vec && idx >= numXmms;
    }

    /**
     * Flat index across all register classes, used for dependence
     * tracking in the issue logic. Layout: [int | vec | flags].
     */
    constexpr unsigned
    flatIndex() const
    {
        switch (cls) {
          case RegClass::Int:   return idx;
          case RegClass::Vec:   return numIntUopRegs + idx;
          case RegClass::Flags: return numIntUopRegs + numVecUopRegs;
          default:              return 0;
        }
    }

    constexpr bool
    operator==(const RegId &other) const
    {
        return cls == other.cls && idx == other.idx;
    }
};

/** Total number of flat register slots (see RegId::flatIndex). */
constexpr unsigned numFlatRegs = numIntUopRegs + numVecUopRegs + 1;

/** Construct a RegId for an architectural GPR. */
constexpr RegId
intReg(Gpr reg)
{
    return RegId(RegClass::Int, static_cast<std::uint8_t>(reg));
}

/** Construct a RegId for an integer decoder temporary t<n>. */
constexpr RegId
intTemp(unsigned n)
{
    return RegId(RegClass::Int, static_cast<std::uint8_t>(numGprs + n));
}

/** Construct a RegId for an architectural XMM register. */
constexpr RegId
vecReg(Xmm reg)
{
    return RegId(RegClass::Vec, static_cast<std::uint8_t>(reg));
}

/** Construct a RegId for a vector decoder temporary vt<n>. */
constexpr RegId
vecTemp(unsigned n)
{
    return RegId(RegClass::Vec, static_cast<std::uint8_t>(numXmms + n));
}

/** The flags register. */
constexpr RegId
flagsReg()
{
    return RegId(RegClass::Flags, 0);
}

/** Micro-op opcodes. */
enum class MicroOpcode : std::uint8_t
{
    // Integer ALU (dst <- src1 OP src2/imm)
    Add, Adc, Sub, Sbb, And, Or, Xor,
    Shl, Shr, Sar, Rol, Ror,
    Mul,
    Not, Neg,
    Mov,        //!< dst <- src1
    LoadImm,    //!< dst <- imm
    Lea,        //!< dst <- agen(src1, src2, scale, disp)
    Cmp,        //!< flags <- src1 - src2/imm (no register result)
    Test,       //!< flags <- src1 & src2/imm

    // Memory
    Load,       //!< dst <- mem[agen], zero-extended to 64 bits
    Store,      //!< mem[agen] <- src3
    StoreImm,   //!< mem[agen] <- imm
    LoadVec,    //!< vdst <- mem[agen] (16 bytes)
    StoreVec,   //!< mem[agen] <- vsrc3 (16 bytes)

    // Control
    Br,         //!< (conditional) branch to Uop::target
    BrInd,      //!< branch to the value of src1

    // Vector integer (lane width in Uop::lane)
    VAdd, VSub, VAnd, VOr, VXor,
    VMulLo16,   //!< 16-bit lane multiply, low half
    VShlI, VShrI,
    VMov,

    // Vector floating point
    FAddPs, FMulPs, FSubPs,
    FAddPd, FMulPd, FSubPd,
    FDivPs, FSqrtPs,

    // Scalar helpers used by devectorized flows: operate on one 64-bit
    // lane of a vector register with a scalar ALU.
    VExtract,   //!< dst(int) <- vector src1's 64-bit lane imm
    VInsert,    //!< vdst's 64-bit lane imm <- int src1

    // Scalar floating point (the x87/scalar FP unit stays powered when
    // the VPU is gated); operands are bit patterns in integer registers.
    FAddS, FSubS, FMulS, FDivS, FSqrtS,   //!< float32 in low 32 bits
    FAddSd, FSubSd, FMulSd,               //!< float64

    CacheFlush, //!< evict [agen] from every cache level
    ReadCycles, //!< dst <- current cycle count

    Nop,
    Halt,

    NumOpcodes,
};

/** Functional-unit classes (issue-port binding). */
enum class FuClass : std::uint8_t
{
    IntAlu,
    IntMul,
    Branch,
    MemLoad,
    MemStore,
    VecAlu,     //!< executes on the VPU
    VecMul,     //!< executes on the VPU
    VecFpDiv,   //!< executes on the VPU (unpipelined)
    FpScalar,   //!< scalar FP unit (stays on when the VPU is gated)
    None,       //!< nop/halt
};

/**
 * One micro-op. The one-byte fields come first and the 8-byte ones
 * last, so the struct packs into 56 bytes with no interior padding
 * (flow-cache entries hold four inline, superblock streams and
 * lifecycle records point at or copy them).
 */
struct Uop
{
    MicroOpcode op = MicroOpcode::Nop;

    RegId dst;
    RegId src1;         //!< also the agen base for memory ops
    RegId src2;         //!< also the agen index for memory ops
    RegId src3;         //!< store-data register

    std::uint8_t scale = 1;
    std::uint8_t memSize = 8;   //!< access size in bytes

    Cond cond = Cond::Always;

    std::uint8_t lane = 4;      //!< vector lane width in bytes
    OpWidth width = OpWidth::W64;

    bool writesFlags = false;
    bool readsFlags = false;

    // --- metadata ------------------------------------------------------
    bool decoy = false;         //!< injected by stealth-mode translation
    bool instrFetch = false;    //!< decoy load targets the I-cache
    bool fusedLeader = false;   //!< first uop of a fused pair
    bool fusedFollower = false; //!< second uop of a fused pair
    bool immData = false;       //!< ALU second operand is imm, not src2
    bool eliminated = false;    //!< removed at decode (SP tracker)

    std::uint8_t uopIdx = 0;    //!< position within the parent flow

    std::int64_t imm = 0;
    std::int64_t disp = 0;
    Addr target = invalidAddr;  //!< macro-level branch target
    Addr macroPc = invalidAddr; //!< PC of the parent macro-op

    bool isLoad() const
    {
        return op == MicroOpcode::Load || op == MicroOpcode::LoadVec;
    }
    bool isStore() const
    {
        return op == MicroOpcode::Store || op == MicroOpcode::StoreImm ||
               op == MicroOpcode::StoreVec;
    }
    bool isMem() const { return isLoad() || isStore(); }
    bool isBranch() const
    {
        return op == MicroOpcode::Br || op == MicroOpcode::BrInd;
    }
};

namespace detail
{

// fuClass/fuLatency run once per simulated uop; precomputing them
// into per-opcode tables keeps the hot loop free of switch dispatch.
constexpr std::size_t numMicroOpcodes =
    static_cast<std::size_t>(MicroOpcode::NumOpcodes);

constexpr FuClass
fuClassOf(MicroOpcode op)
{
    switch (op) {
      case MicroOpcode::Add: case MicroOpcode::Adc:
      case MicroOpcode::Sub: case MicroOpcode::Sbb:
      case MicroOpcode::And: case MicroOpcode::Or: case MicroOpcode::Xor:
      case MicroOpcode::Shl: case MicroOpcode::Shr: case MicroOpcode::Sar:
      case MicroOpcode::Rol: case MicroOpcode::Ror:
      case MicroOpcode::Not: case MicroOpcode::Neg:
      case MicroOpcode::Mov: case MicroOpcode::LoadImm:
      case MicroOpcode::Lea:
      case MicroOpcode::Cmp: case MicroOpcode::Test:
      case MicroOpcode::VExtract: case MicroOpcode::VInsert:
      case MicroOpcode::ReadCycles:
        return FuClass::IntAlu;
      case MicroOpcode::Mul:
        return FuClass::IntMul;
      case MicroOpcode::Load: case MicroOpcode::LoadVec:
        return FuClass::MemLoad;
      case MicroOpcode::Store: case MicroOpcode::StoreImm:
      case MicroOpcode::StoreVec:
      case MicroOpcode::CacheFlush:
        return FuClass::MemStore;
      case MicroOpcode::Br: case MicroOpcode::BrInd:
        return FuClass::Branch;
      case MicroOpcode::VAdd: case MicroOpcode::VSub:
      case MicroOpcode::VAnd: case MicroOpcode::VOr: case MicroOpcode::VXor:
      case MicroOpcode::VShlI: case MicroOpcode::VShrI:
      case MicroOpcode::VMov:
      case MicroOpcode::FAddPs: case MicroOpcode::FSubPs:
      case MicroOpcode::FAddPd: case MicroOpcode::FSubPd:
        return FuClass::VecAlu;
      case MicroOpcode::VMulLo16:
      case MicroOpcode::FMulPs: case MicroOpcode::FMulPd:
        return FuClass::VecMul;
      case MicroOpcode::FDivPs: case MicroOpcode::FSqrtPs:
        return FuClass::VecFpDiv;
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS:
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd:
        return FuClass::FpScalar;
      case MicroOpcode::Nop: case MicroOpcode::Halt:
      default:
        return FuClass::None;
    }
}

constexpr Cycles
fuLatencyOf(MicroOpcode op)
{
    switch (fuClassOf(op)) {
      case FuClass::IntAlu:
        return op == MicroOpcode::ReadCycles ? 12 : 1;
      case FuClass::IntMul:   return 3;
      case FuClass::Branch:   return 1;
      case FuClass::MemLoad:  return 0;   // memory system supplies latency
      case FuClass::MemStore: return 0;
      case FuClass::VecAlu:   return 1;
      case FuClass::VecMul:   return 5;
      case FuClass::VecFpDiv:
        return op == MicroOpcode::FSqrtPs ? 18 : 14;
      case FuClass::FpScalar:
        switch (op) {
          case MicroOpcode::FMulS: case MicroOpcode::FMulSd: return 5;
          case MicroOpcode::FDivS:  return 14;
          case MicroOpcode::FSqrtS: return 18;
          default: return 3;
        }
      case FuClass::None:     return 1;
    }
    return 1;
}

template <typename T, T (*Fn)(MicroOpcode)>
constexpr std::array<T, numMicroOpcodes>
makeOpcodeTable()
{
    std::array<T, numMicroOpcodes> table{};
    for (std::size_t i = 0; i < numMicroOpcodes; ++i)
        table[i] = Fn(static_cast<MicroOpcode>(i));
    return table;
}

inline constexpr auto fuClassTable =
    makeOpcodeTable<FuClass, fuClassOf>();
inline constexpr auto fuLatencyTable =
    makeOpcodeTable<Cycles, fuLatencyOf>();

} // namespace detail

static_assert(sizeof(Uop) == 56, "Uop field order: narrow fields first");

/** Functional unit class a uop issues to. */
inline FuClass
fuClass(const Uop &uop)
{
    return detail::fuClassTable[static_cast<std::size_t>(uop.op)];
}

/** Execution latency in cycles (Sandy Bridge-like; memory excluded). */
inline Cycles
fuLatency(const Uop &uop)
{
    return detail::fuLatencyTable[static_cast<std::size_t>(uop.op)];
}

/** True iff the uop executes on the vector processing unit. */
inline bool
onVpu(const Uop &uop)
{
    const FuClass fu = fuClass(uop);
    return fu == FuClass::VecAlu || fu == FuClass::VecMul ||
           fu == FuClass::VecFpDiv;
}

/**
 * True iff the uop writes architecturally visible state: an
 * architectural GPR or XMM register (not a decoder temporary), the
 * flags register, or memory. This is the containment predicate the MCU
 * admission path enforces on custom translations that do not declare
 * allowArchWrites.
 */
inline bool
writesArchState(const Uop &uop)
{
    if (uop.isStore())
        return true;
    if (uop.writesFlags)
        return true;
    if (!uop.dst.valid())
        return false;
    if (uop.dst.cls == RegClass::Flags)
        return true;
    if (uop.dst.cls == RegClass::Int)
        return !uop.dst.isIntTemp();
    if (uop.dst.cls == RegClass::Vec)
        return !uop.dst.isVecTemp();
    return false;
}

/** Printable form, e.g. "ld t0, [rax+rbx*4+0x10]". */
std::string toString(const Uop &uop);

/** Printable register name (handles temporaries). */
std::string regName(const RegId &reg);

} // namespace csd

#endif // CSD_UOP_UOP_HH
