/**
 * @file
 * Macro-op (native-instruction) definitions for the mini x86-like ISA.
 *
 * A MacroOp is one variable-length native instruction as seen by the
 * fetch/length-decode stages. The decoders translate each MacroOp into a
 * flow of micro-ops (see uop/). Instruction byte lengths are computed by
 * a plausible x86 pseudo-encoder so that the 16-byte fetch buffer, the
 * instruction-length decoder, and the micro-op cache's 32-byte-window
 * mapping all behave realistically.
 */

#ifndef CSD_ISA_MACROOP_HH
#define CSD_ISA_MACROOP_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>

#include "common/types.hh"
#include "isa/registers.hh"

namespace csd
{

/** Native instruction opcodes. */
enum class MacroOpcode : std::uint8_t
{
    // Data movement
    MovRR,      //!< dst <- src1
    MovRI,      //!< dst <- imm (up to 64-bit immediate)
    Load,       //!< dst <- [mem]   (zero-extends sub-8-byte sizes)
    Store,      //!< [mem] <- src1
    StoreImm,   //!< [mem] <- imm (32-bit immediate)
    Lea,        //!< dst <- effective address of mem
    Push,       //!< rsp -= 8; [rsp] <- src1
    Pop,        //!< dst <- [rsp]; rsp += 8

    // Integer ALU, register-register (width selects 32/64-bit operation)
    Add, Adc, Sub, Sbb, And, Or, Xor,
    Shl, Shr, Sar, Rol, Ror,
    Imul,       //!< dst <- dst * src1 (low bits)
    Not, Neg,
    Cmp,        //!< flags <- dst - src1
    Test,       //!< flags <- dst & src1

    // Integer ALU, register-immediate forms
    AddI, AdcI, SubI, SbbI, AndI, OrI, XorI,
    ShlI, ShrI, SarI, RolI, RorI,
    CmpI, TestI,

    // Load-op forms (micro-fused on real hardware): dst <- dst OP [mem]
    AddM, SubM, AndM, OrM, XorM, CmpM, ImulM,

    // Control transfer
    Jmp,        //!< unconditional direct jump
    Jcc,        //!< conditional direct jump
    JmpInd,     //!< jump through register
    Call,       //!< direct call: push return address, jump
    Ret,        //!< pop return address, jump

    // SSE integer (128-bit, lane width given by instruction)
    MovdqaLoad,   //!< xdst <- [mem] (16 bytes)
    MovdqaStore,  //!< [mem] <- xsrc
    MovdqaRR,     //!< xdst <- xsrc
    Paddb, Paddw, Paddd, Paddq,
    Psubb, Psubw, Psubd, Psubq,
    Pand, Por, Pxor,
    Pmullw,       //!< 16-bit lane multiply, low half
    PslldI,       //!< 32-bit lane shift left by immediate
    PsrldI,       //!< 32-bit lane shift right by immediate

    // SSE floating point (packed single/double)
    Addps, Mulps, Subps,
    Addpd, Mulpd, Subpd,
    Divps,        //!< long-latency packed divide
    Sqrtps,

    // Attacker/measurement primitives
    Clflush,    //!< evict the line at [mem] from the whole hierarchy
    Rdtsc,      //!< rax <- current cycle count

    // Misc / microsequenced
    Nop,
    Cpuid,        //!< long microsequenced flow (MSROM exercise)
    RepStosI,     //!< store imm byte pattern for imm2 blocks (microsequenced)
    Halt,         //!< stop simulation of this program

    NumOpcodes,
};

/** Memory access sizes in bytes. */
enum class MemSize : std::uint8_t
{
    B1 = 1, B2 = 2, B4 = 4, B8 = 8, B16 = 16,
};

/** An x86-style memory operand: [base + index*scale + disp]. */
struct MemOperand
{
    Gpr base = Gpr::Invalid;
    Gpr index = Gpr::Invalid;
    std::uint8_t scale = 1;       //!< 1, 2, 4, or 8
    std::int64_t disp = 0;
    MemSize size = MemSize::B8;

    bool hasBase() const { return base != Gpr::Invalid; }
    bool hasIndex() const { return index != Gpr::Invalid; }
};

/** Operation width for scalar ALU ops (bytes). */
enum class OpWidth : std::uint8_t
{
    W32 = 4,   //!< 32-bit op, zero-extends into the 64-bit register
    W64 = 8,
};

/**
 * One native instruction.
 *
 * Fields not applicable to a given opcode are left at their defaults;
 * the translator and executor only read what the opcode implies.
 */
struct MacroOp
{
    MacroOpcode opcode = MacroOpcode::Nop;

    Gpr dst = Gpr::Invalid;
    Gpr src1 = Gpr::Invalid;
    Xmm xdst = Xmm::Invalid;
    Xmm xsrc = Xmm::Invalid;

    std::int64_t imm = 0;
    std::int64_t imm2 = 0;        //!< secondary immediate (RepStosI count)

    MemOperand mem;
    bool hasMem = false;

    Cond cond = Cond::Always;
    Addr target = invalidAddr;    //!< direct branch/call target

    OpWidth width = OpWidth::W64;

    Addr pc = invalidAddr;        //!< assigned by the ProgramBuilder
    std::uint8_t length = 0;      //!< encoded byte length

    /** Address of the byte following this instruction. */
    Addr nextPc() const { return pc + length; }
};

/** Classification bits of an opcode (macroOpTraits). */
enum MacroOpTrait : std::uint16_t
{
    opBranch = 1u << 0,         //!< any control transfer
    opCondBranch = 1u << 1,
    opDirectBranch = 1u << 2,
    opCall = 1u << 3,
    opReturn = 1u << 4,
    opMemRead = 1u << 5,        //!< performs a load
    opMemWrite = 1u << 6,       //!< performs a store
    opVector = 1u << 7,         //!< executes on the VPU
    opVectorArith = 1u << 8,    //!< VPU op other than a pure move
};

/**
 * The trait bits of every opcode, indexed by opcode. The classification
 * helpers below are inline reads of this one table: decode, the branch
 * predictor, the LSD and the power controller ask them several times
 * per retired macro-op.
 */
inline constexpr auto macroOpTraits = [] {
    using enum MacroOpcode;
    std::array<std::uint16_t, static_cast<std::size_t>(NumOpcodes)>
        traits{};
    const auto mark = [&traits](std::uint16_t bits,
                                std::initializer_list<MacroOpcode> ops) {
        for (const MacroOpcode op : ops)
            traits[static_cast<std::size_t>(op)] |= bits;
    };
    mark(opBranch, {Jmp, Jcc, JmpInd, Call, Ret});
    mark(opCondBranch, {Jcc});
    mark(opDirectBranch, {Jmp, Jcc, Call});
    mark(opCall, {Call});
    mark(opReturn, {Ret});
    mark(opMemRead, {Load, Pop, AddM, SubM, AndM, OrM, XorM, CmpM, ImulM,
                     MovdqaLoad, Ret});
    mark(opMemWrite,
         {Store, StoreImm, Push, MovdqaStore, Call, RepStosI});
    mark(opVector, {MovdqaLoad, MovdqaStore, MovdqaRR});
    mark(opVector | opVectorArith,
         {Paddb, Paddw, Paddd, Paddq, Psubb, Psubw, Psubd, Psubq, Pand, Por,
          Pxor, Pmullw, PslldI, PsrldI, Addps, Mulps, Subps, Addpd, Mulpd,
          Subpd, Divps, Sqrtps});
    return traits;
}();

/** True iff @p op has trait @p trait. */
inline bool
hasOpTrait(MacroOpcode op, MacroOpTrait trait)
{
    return (macroOpTraits[static_cast<std::size_t>(op)] & trait) != 0;
}

/** Instruction classification helpers used by decode and CSD. */
inline bool isBranch(MacroOpcode op) { return hasOpTrait(op, opBranch); }
inline bool
isConditionalBranch(MacroOpcode op)
{
    return hasOpTrait(op, opCondBranch);
}
inline bool
isDirectBranch(MacroOpcode op)
{
    return hasOpTrait(op, opDirectBranch);
}
inline bool isCall(MacroOpcode op) { return hasOpTrait(op, opCall); }
inline bool isReturn(MacroOpcode op) { return hasOpTrait(op, opReturn); }
inline bool
isMemRead(const MacroOp &op)
{
    return hasOpTrait(op.opcode, opMemRead);
}
inline bool
isMemWrite(const MacroOp &op)
{
    return hasOpTrait(op.opcode, opMemWrite);
}
inline bool isVector(MacroOpcode op) { return hasOpTrait(op, opVector); }
inline bool
isVectorArith(MacroOpcode op)
{
    return hasOpTrait(op, opVectorArith);
}

bool readsFlags(const MacroOp &op);
bool writesFlags(const MacroOp &op);

/**
 * Compute the encoded byte length of an instruction using plausible
 * x86-64 encoding rules (prefixes + opcode + modrm + sib + disp + imm).
 */
std::uint8_t encodedLength(const MacroOp &op);

/** Printable mnemonic for an opcode. */
std::string mnemonic(MacroOpcode op);

/** Disassemble a full instruction. */
std::string disassemble(const MacroOp &op);

} // namespace csd

#endif // CSD_ISA_MACROOP_HH
