/**
 * @file
 * Functional micro-op executor.
 *
 * Defines every micro-op's architectural semantics, in two layers.
 * The per-category handlers (agen, execScalarAlu, execScalarFp,
 * execVector) are what the simulator runs: its one retire routine
 * (sim/retire.cc) dispatches each resolved uop straight to them.
 * execUop() and the flow-level execute()/executeInto() wrap the same
 * handlers in an opcode switch and return per-uop dynamic annotations
 * (effective addresses, branch outcomes). They are the reference
 * semantics that the tests, the superblock tier-equivalence prover
 * and bench_frontend_micro compare against, and what lets the test
 * suite prove that native, stealth-mode and devectorized translations
 * preserve architectural state.
 */

#ifndef CSD_CPU_EXECUTOR_HH
#define CSD_CPU_EXECUTOR_HH

#include <bit>
#include <cmath>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/small_vector.hh"
#include "cpu/arch_state.hh"
#include "uop/flow.hh"

namespace csd
{

/** Dynamic record of one executed micro-op. */
struct DynUop
{
    const Uop *uop = nullptr;    //!< static uop (points into the flow)
    Addr effAddr = invalidAddr;  //!< effective address for memory uops
    bool taken = false;          //!< branch outcome
};

/**
 * Container for a flow's executed uops. Sized for typical flows plus a
 * small fusion/branch tail; decoy micro-loop expansions (dozens of
 * trips) spill to the heap, which execute() pre-reserves in one shot.
 */
using DynUopVec = SmallVector<DynUop, 8>;

/** Result of executing one macro-op's flow. */
struct FlowResult
{
    DynUopVec dynUops;           //!< expanded, in execution order
    Addr nextPc = invalidAddr;   //!< PC after the macro-op
    bool tookBranch = false;     //!< control left the fall-through path
    bool halted = false;
};

/** Executes micro-op flows functionally. */
class FunctionalExecutor
{
  public:
    explicit FunctionalExecutor(ArchState &state) : state_(state) {}

    /**
     * Execute @p flow (the translation of @p macro). Updates state_,
     * including PC.
     */
    FlowResult execute(const MacroOp &macro, const UopFlow &flow);

    /**
     * Same, but reuse @p result's dynUops storage across calls
     * (recycling the heap buffer of a once-spilled DynUopVec avoids
     * reallocating it every macro-op).
     */
    void executeInto(const MacroOp &macro, const UopFlow &flow,
                     FlowResult &result);

    // --- uop-grain entry points ------------------------------------------
    //
    // The simulator's retire routine (sim/retire.cc) walks resolved
    // uop streams and calls straight into the per-category handlers
    // below, bypassing execUop()'s opcode dispatch; execUop() calls
    // the same functions, so there is one definition of every uop's
    // semantics. The bodies live in this header (below the class) so
    // both dispatch loops can inline them.

// The per-category handlers are forced inline: each sits behind one
// call site per dispatch loop, but the loops (execUop's switch, the
// retire routine's threaded code) are big enough that the inliner's
// growth budget would otherwise leave a per-uop call on the hottest
// edge in cache-only simulation.
#if defined(__GNUC__) || defined(__clang__)
#define CSD_EXEC_INLINE __attribute__((always_inline)) inline
#else
#define CSD_EXEC_INLINE inline
#endif

    /** Execute one uop (full opcode dispatch). Updates state_. */
    void execUop(const Uop &uop, DynUop &dyn, FlowResult &result,
                 Addr fall_through);

    /** Effective address of a memory/LEA uop. */
    CSD_EXEC_INLINE Addr agen(const Uop &uop) const;

    /** Scalar integer ALU ops (Add..Lea). */
    CSD_EXEC_INLINE void execScalarAlu(const Uop &uop);

    /** Scalar float ops (FAddS..FMulSd). */
    CSD_EXEC_INLINE void execScalarFp(const Uop &uop);

    /** 128-bit vector ops (VAdd..VInsert). */
    CSD_EXEC_INLINE void execVector(const Uop &uop);

  private:
    std::uint64_t aluSrc2(const Uop &uop) const;

    ArchState &state_;
};

namespace exec_detail
{

constexpr unsigned
widthBits(OpWidth width)
{
    return width == OpWidth::W32 ? 32 : 64;
}

constexpr std::uint64_t
maskToWidth(std::uint64_t val, OpWidth width)
{
    return width == OpWidth::W32 ? (val & 0xffffffffull) : val;
}

constexpr bool
signBit(std::uint64_t val, OpWidth width)
{
    return bit(val, widthBits(width) - 1);
}

/** Set zf/sf from a width-masked result; leaves cf/of untouched. */
inline void
setZfSf(RFlags &flags, std::uint64_t result, OpWidth width)
{
    flags.zf = maskToWidth(result, width) == 0;
    flags.sf = signBit(result, width);
}

} // namespace exec_detail

inline Addr
FunctionalExecutor::agen(const Uop &uop) const
{
    Addr addr = static_cast<Addr>(uop.disp);
    if (uop.src1.valid())
        addr += state_.readInt(uop.src1);
    if (uop.src2.valid() && uop.isMem())
        addr += state_.readInt(uop.src2) * uop.scale;
    return addr;
}

inline std::uint64_t
FunctionalExecutor::aluSrc2(const Uop &uop) const
{
    if (uop.immData)
        return static_cast<std::uint64_t>(uop.imm);
    if (uop.src2.valid())
        return state_.readInt(uop.src2);
    return 0;
}

inline void
FunctionalExecutor::execScalarAlu(const Uop &uop)
{
    using exec_detail::maskToWidth;
    using exec_detail::signBit;
    using exec_detail::widthBits;

    const OpWidth width = uop.width;
    const std::uint64_t a = maskToWidth(
        uop.src1.valid() ? state_.readInt(uop.src1) : 0, width);
    const std::uint64_t b = maskToWidth(aluSrc2(uop), width);
    RFlags &flags = state_.flags;

    std::uint64_t result = 0;
    bool write_result = true;
    bool new_cf = flags.cf;
    bool new_of = flags.of;

    switch (uop.op) {
      case MicroOpcode::Add: {
        result = maskToWidth(a + b, width);
        new_cf = result < a;
        new_of = signBit(a, width) == signBit(b, width) &&
                 signBit(result, width) != signBit(a, width);
        break;
      }
      case MicroOpcode::Adc: {
        const std::uint64_t carry_in = flags.cf ? 1 : 0;
        result = maskToWidth(a + b + carry_in, width);
        new_cf = result < a || (carry_in && result == a);
        new_of = signBit(a, width) == signBit(b, width) &&
                 signBit(result, width) != signBit(a, width);
        break;
      }
      case MicroOpcode::Sub:
      case MicroOpcode::Cmp: {
        result = maskToWidth(a - b, width);
        new_cf = a < b;
        new_of = signBit(a, width) != signBit(b, width) &&
                 signBit(result, width) != signBit(a, width);
        write_result = uop.op == MicroOpcode::Sub;
        break;
      }
      case MicroOpcode::Sbb: {
        const std::uint64_t borrow_in = flags.cf ? 1 : 0;
        result = maskToWidth(a - b - borrow_in, width);
        new_cf = a < b + borrow_in || (b == maskToWidth(~0ull, width) &&
                                       borrow_in);
        new_of = signBit(a, width) != signBit(b, width) &&
                 signBit(result, width) != signBit(a, width);
        break;
      }
      case MicroOpcode::And:
      case MicroOpcode::Test: {
        result = a & b;
        new_cf = false;
        new_of = false;
        write_result = uop.op == MicroOpcode::And;
        break;
      }
      case MicroOpcode::Or: {
        result = a | b;
        new_cf = false;
        new_of = false;
        break;
      }
      case MicroOpcode::Xor: {
        result = a ^ b;
        new_cf = false;
        new_of = false;
        break;
      }
      case MicroOpcode::Shl: {
        const unsigned count = b & (widthBits(width) - 1);
        result = count ? maskToWidth(a << count, width) : a;
        if (count)
            new_cf = bit(a, widthBits(width) - count);
        break;
      }
      case MicroOpcode::Shr: {
        const unsigned count = b & (widthBits(width) - 1);
        result = count ? (a >> count) : a;
        if (count)
            new_cf = bit(a, count - 1);
        break;
      }
      case MicroOpcode::Sar: {
        const unsigned count = b & (widthBits(width) - 1);
        if (count == 0) {
            result = a;
        } else if (width == OpWidth::W32) {
            result = static_cast<std::uint32_t>(
                static_cast<std::int32_t>(a) >> count);
            new_cf = bit(a, count - 1);
        } else {
            result = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(a) >> count);
            new_cf = bit(a, count - 1);
        }
        break;
      }
      case MicroOpcode::Rol: {
        const unsigned nbits = widthBits(width);
        const unsigned count = b & (nbits - 1);
        result = count
            ? maskToWidth((a << count) | (a >> (nbits - count)), width)
            : a;
        new_cf = bit(result, 0);
        break;
      }
      case MicroOpcode::Ror: {
        const unsigned nbits = widthBits(width);
        const unsigned count = b & (nbits - 1);
        result = count
            ? maskToWidth((a >> count) | (a << (nbits - count)), width)
            : a;
        new_cf = signBit(result, width);
        break;
      }
      case MicroOpcode::Mul: {
        if (width == OpWidth::W32) {
            const std::uint64_t full = a * b;
            result = full & 0xffffffffull;
            new_cf = new_of = (full >> 32) != 0;
        } else {
            const unsigned __int128 full =
                static_cast<unsigned __int128>(a) * b;
            result = static_cast<std::uint64_t>(full);
            new_cf = new_of = (full >> 64) != 0;
        }
        break;
      }
      case MicroOpcode::Not: {
        result = maskToWidth(~a, width);
        break;
      }
      case MicroOpcode::Neg: {
        result = maskToWidth(0 - a, width);
        new_cf = a != 0;
        new_of = signBit(a, width) && signBit(result, width);
        break;
      }
      case MicroOpcode::Mov: {
        result = state_.readInt(uop.src1);
        break;
      }
      case MicroOpcode::LoadImm: {
        result = static_cast<std::uint64_t>(uop.imm);
        break;
      }
      case MicroOpcode::Lea: {
        result = agen(uop);
        break;
      }
      default:
        csd_panic("execScalarAlu: unhandled micro-opcode ",
                  static_cast<int>(uop.op));
    }

    if (uop.writesFlags) {
        exec_detail::setZfSf(flags, result, width);
        flags.cf = new_cf;
        flags.of = new_of;
    }

    if (write_result && uop.dst.valid())
        state_.writeInt(uop.dst, maskToWidth(result, width));
}

inline void
FunctionalExecutor::execScalarFp(const Uop &uop)
{
    const std::uint64_t a = state_.readInt(uop.src1);
    const std::uint64_t b = uop.immData
        ? static_cast<std::uint64_t>(uop.imm)
        : (uop.src2.valid() ? state_.readInt(uop.src2) : 0);

    std::uint64_t result = 0;
    switch (uop.op) {
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS: {
        const float fa =
            std::bit_cast<float>(static_cast<std::uint32_t>(a));
        const float fb =
            std::bit_cast<float>(static_cast<std::uint32_t>(b));
        float fr = 0.0f;
        switch (uop.op) {
          case MicroOpcode::FAddS:  fr = fa + fb; break;
          case MicroOpcode::FSubS:  fr = fa - fb; break;
          case MicroOpcode::FMulS:  fr = fa * fb; break;
          case MicroOpcode::FDivS:  fr = fa / fb; break;
          case MicroOpcode::FSqrtS: fr = std::sqrt(fa); break;
          default: break;
        }
        result = std::bit_cast<std::uint32_t>(fr);
        break;
      }
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd: {
        const double fa = std::bit_cast<double>(a);
        const double fb = std::bit_cast<double>(b);
        double fr = 0.0;
        switch (uop.op) {
          case MicroOpcode::FAddSd: fr = fa + fb; break;
          case MicroOpcode::FSubSd: fr = fa - fb; break;
          case MicroOpcode::FMulSd: fr = fa * fb; break;
          default: break;
        }
        result = std::bit_cast<std::uint64_t>(fr);
        break;
      }
      default:
        csd_panic("execScalarFp: unhandled micro-opcode");
    }
    state_.writeInt(uop.dst, result);
}

inline void
FunctionalExecutor::execVector(const Uop &uop)
{
    if (uop.op == MicroOpcode::VInsert) {
        Vec128 vec = state_.readVecReg(uop.dst);
        vec.setLane(8, static_cast<unsigned>(uop.imm) & 1,
                    state_.readInt(uop.src1));
        state_.writeVecReg(uop.dst, vec);
        return;
    }
    if (uop.op == MicroOpcode::VMov) {
        state_.writeVecReg(uop.dst, state_.readVecReg(uop.src1));
        return;
    }

    const Vec128 &a = state_.readVecReg(uop.src1);
    const unsigned lane = uop.lane;
    const unsigned num_lanes = 16 / lane;
    const std::uint64_t lane_mask = lane >= 8
        ? ~0ull
        : ((1ull << (8 * lane)) - 1);
    Vec128 result;

    auto binary_int = [&](auto fn) {
        const Vec128 &b = state_.readVecReg(uop.src2);
        for (unsigned i = 0; i < num_lanes; ++i)
            result.setLane(lane, i,
                           fn(a.lane(lane, i), b.lane(lane, i)) & lane_mask);
    };

    auto unary_shift = [&](bool left) {
        const unsigned count = static_cast<unsigned>(uop.imm);
        for (unsigned i = 0; i < num_lanes; ++i) {
            const std::uint64_t val = a.lane(lane, i);
            std::uint64_t out = 0;
            if (count < 8u * lane)
                out = (left ? (val << count) : (val >> count)) & lane_mask;
            result.setLane(lane, i, out);
        }
    };

    auto binary_f32 = [&](auto fn) {
        const Vec128 &b = state_.readVecReg(uop.src2);
        for (unsigned i = 0; i < 4; ++i) {
            const float fa = std::bit_cast<float>(
                static_cast<std::uint32_t>(a.lane(4, i)));
            const float fb = std::bit_cast<float>(
                static_cast<std::uint32_t>(b.lane(4, i)));
            result.setLane(4, i, std::bit_cast<std::uint32_t>(fn(fa, fb)));
        }
    };

    auto binary_f64 = [&](auto fn) {
        const Vec128 &b = state_.readVecReg(uop.src2);
        for (unsigned i = 0; i < 2; ++i) {
            const double fa = std::bit_cast<double>(a.lane(8, i));
            const double fb = std::bit_cast<double>(b.lane(8, i));
            result.setLane(8, i, std::bit_cast<std::uint64_t>(fn(fa, fb)));
        }
    };

    switch (uop.op) {
      case MicroOpcode::VAdd:
        binary_int([](std::uint64_t x, std::uint64_t y) { return x + y; });
        break;
      case MicroOpcode::VSub:
        binary_int([](std::uint64_t x, std::uint64_t y) { return x - y; });
        break;
      case MicroOpcode::VAnd:
        binary_int([](std::uint64_t x, std::uint64_t y) { return x & y; });
        break;
      case MicroOpcode::VOr:
        binary_int([](std::uint64_t x, std::uint64_t y) { return x | y; });
        break;
      case MicroOpcode::VXor:
        binary_int([](std::uint64_t x, std::uint64_t y) { return x ^ y; });
        break;
      case MicroOpcode::VMulLo16:
        binary_int([](std::uint64_t x, std::uint64_t y) {
            return (x * y) & 0xffff;
        });
        break;
      case MicroOpcode::VShlI:
        unary_shift(true);
        break;
      case MicroOpcode::VShrI:
        unary_shift(false);
        break;
      case MicroOpcode::FAddPs:
        binary_f32([](float x, float y) { return x + y; });
        break;
      case MicroOpcode::FMulPs:
        binary_f32([](float x, float y) { return x * y; });
        break;
      case MicroOpcode::FSubPs:
        binary_f32([](float x, float y) { return x - y; });
        break;
      case MicroOpcode::FDivPs:
        binary_f32([](float x, float y) { return x / y; });
        break;
      case MicroOpcode::FSqrtPs: {
        // Unary: operates on the source operand (src2 when present).
        const Vec128 &s =
            uop.src2.valid() ? state_.readVecReg(uop.src2) : a;
        for (unsigned i = 0; i < 4; ++i) {
            const float fa = std::bit_cast<float>(
                static_cast<std::uint32_t>(s.lane(4, i)));
            result.setLane(
                4, i, std::bit_cast<std::uint32_t>(std::sqrt(fa)));
        }
        break;
      }
      case MicroOpcode::FAddPd:
        binary_f64([](double x, double y) { return x + y; });
        break;
      case MicroOpcode::FMulPd:
        binary_f64([](double x, double y) { return x * y; });
        break;
      case MicroOpcode::FSubPd:
        binary_f64([](double x, double y) { return x - y; });
        break;
      default:
        csd_panic("execVector: unhandled micro-opcode ",
                  static_cast<int>(uop.op));
    }

    state_.writeVecReg(uop.dst, result);
}

inline void
FunctionalExecutor::execUop(const Uop &uop, DynUop &dyn, FlowResult &result,
                            Addr fall_through)
{
    switch (uop.op) {
      case MicroOpcode::Load: {
        dyn.effAddr = agen(uop);
        const std::uint64_t val = state_.mem.read(dyn.effAddr, uop.memSize);
        if (uop.dst.valid())
            state_.writeInt(uop.dst, val);
        break;
      }
      case MicroOpcode::Store: {
        dyn.effAddr = agen(uop);
        state_.mem.write(dyn.effAddr, uop.memSize,
                         state_.readInt(uop.src3));
        break;
      }
      case MicroOpcode::StoreImm: {
        dyn.effAddr = agen(uop);
        state_.mem.write(dyn.effAddr, uop.memSize,
                         static_cast<std::uint64_t>(uop.imm));
        break;
      }
      case MicroOpcode::LoadVec: {
        dyn.effAddr = agen(uop);
        state_.writeVecReg(uop.dst, state_.mem.readVec(dyn.effAddr));
        break;
      }
      case MicroOpcode::StoreVec: {
        dyn.effAddr = agen(uop);
        state_.mem.writeVec(dyn.effAddr, state_.readVecReg(uop.src3));
        break;
      }
      case MicroOpcode::Br: {
        dyn.taken = evalCond(uop.cond, state_.flags);
        if (dyn.taken) {
            result.nextPc = uop.target;
            result.tookBranch = true;
        }
        break;
      }
      case MicroOpcode::BrInd: {
        dyn.taken = true;
        result.nextPc = state_.readInt(uop.src1);
        result.tookBranch = true;
        break;
      }
      case MicroOpcode::CacheFlush:
        // Architecturally a no-op; the timing layers evict [agen].
        dyn.effAddr = agen(uop);
        break;
      case MicroOpcode::ReadCycles:
        state_.writeInt(uop.dst, state_.cycleHint);
        break;
      case MicroOpcode::Nop:
        break;
      case MicroOpcode::Halt:
        state_.halted = true;
        result.halted = true;
        break;
      case MicroOpcode::VAdd: case MicroOpcode::VSub:
      case MicroOpcode::VAnd: case MicroOpcode::VOr:
      case MicroOpcode::VXor: case MicroOpcode::VMulLo16:
      case MicroOpcode::VShlI: case MicroOpcode::VShrI:
      case MicroOpcode::VMov:
      case MicroOpcode::FAddPs: case MicroOpcode::FMulPs:
      case MicroOpcode::FSubPs: case MicroOpcode::FAddPd:
      case MicroOpcode::FMulPd: case MicroOpcode::FSubPd:
      case MicroOpcode::FDivPs: case MicroOpcode::FSqrtPs:
      case MicroOpcode::VInsert:
        execVector(uop);
        break;
      case MicroOpcode::VExtract: {
        const Vec128 &vec = state_.readVecReg(uop.src1);
        state_.writeInt(uop.dst,
                        vec.lane(8, static_cast<unsigned>(uop.imm) & 1));
        break;
      }
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS:
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd:
        execScalarFp(uop);
        break;
      default:
        execScalarAlu(uop);
        break;
    }
    (void)fall_through;
}

} // namespace csd

#endif // CSD_CPU_EXECUTOR_HH
