#include "csd/devect.hh"

#include "common/logging.hh"

namespace csd
{

namespace
{

// Decoder temporaries used by devectorized flows (decoys use t6/t7).
const RegId tA = intTemp(0);    //!< chunk of the destination operand
const RegId tB = intTemp(1);    //!< chunk of the source operand
const RegId tX = intTemp(2);
const RegId tY = intTemp(3);
const RegId tAcc = intTemp(4);

Uop
alu3(MicroOpcode op, RegId dst, RegId src1, RegId src2, Addr pc)
{
    Uop uop;
    uop.op = op;
    uop.dst = dst;
    uop.src1 = src1;
    uop.src2 = src2;
    uop.macroPc = pc;
    return uop;
}

Uop
aluImm(MicroOpcode op, RegId dst, RegId src1, std::int64_t imm, Addr pc)
{
    Uop uop;
    uop.op = op;
    uop.dst = dst;
    uop.src1 = src1;
    uop.immData = true;
    uop.imm = imm;
    uop.macroPc = pc;
    return uop;
}

Uop
vext(RegId dst, RegId vec, unsigned chunk, Addr pc)
{
    Uop uop;
    uop.op = MicroOpcode::VExtract;
    uop.dst = dst;
    uop.src1 = vec;
    uop.immData = true;
    uop.imm = chunk;
    uop.macroPc = pc;
    return uop;
}

Uop
vins(RegId vec, RegId src, unsigned chunk, Addr pc)
{
    Uop uop;
    uop.op = MicroOpcode::VInsert;
    uop.dst = vec;
    uop.src1 = src;
    uop.immData = true;
    uop.imm = chunk;
    uop.macroPc = pc;
    return uop;
}

/** High-bit (sign) mask replicated per lane within a 64-bit chunk. */
std::uint64_t
laneHighMask(unsigned lane)
{
    std::uint64_t mask = 0;
    for (unsigned base = 0; base < 64; base += 8 * lane)
        mask |= 1ull << (base + 8 * lane - 1);
    return mask;
}

/** SWAR per-lane addition: r = ((a&L)+(b&L)) ^ ((a^b)&H). */
void
emitSwarAdd(UopVec &uops, unsigned lane, Addr pc)
{
    const auto h = static_cast<std::int64_t>(laneHighMask(lane));
    const auto l = static_cast<std::int64_t>(~laneHighMask(lane));
    uops.push_back(aluImm(MicroOpcode::And, tX, tA, l, pc));
    uops.push_back(aluImm(MicroOpcode::And, tY, tB, l, pc));
    uops.push_back(alu3(MicroOpcode::Add, tX, tX, tY, pc));
    uops.push_back(alu3(MicroOpcode::Xor, tY, tA, tB, pc));
    uops.push_back(aluImm(MicroOpcode::And, tY, tY, h, pc));
    uops.push_back(alu3(MicroOpcode::Xor, tA, tX, tY, pc));
}

/** SWAR per-lane subtraction: r = ((a|H)-(b&L)) ^ ((a^~b)&H). */
void
emitSwarSub(UopVec &uops, unsigned lane, Addr pc)
{
    const auto h = static_cast<std::int64_t>(laneHighMask(lane));
    const auto l = static_cast<std::int64_t>(~laneHighMask(lane));
    uops.push_back(aluImm(MicroOpcode::Or, tX, tA, h, pc));
    uops.push_back(aluImm(MicroOpcode::And, tY, tB, l, pc));
    uops.push_back(alu3(MicroOpcode::Sub, tX, tX, tY, pc));
    Uop not_b = alu3(MicroOpcode::Not, tY, tB, RegId(), pc);
    uops.push_back(not_b);
    uops.push_back(alu3(MicroOpcode::Xor, tY, tA, tY, pc));
    uops.push_back(aluImm(MicroOpcode::And, tY, tY, h, pc));
    uops.push_back(alu3(MicroOpcode::Xor, tA, tX, tY, pc));
}

/** Per-16-bit-lane low multiply within a 64-bit chunk. */
void
emitMul16(UopVec &uops, Addr pc)
{
    uops.push_back(aluImm(MicroOpcode::LoadImm, tAcc, RegId(), 0, pc));
    for (unsigned i = 0; i < 4; ++i) {
        const auto shift = static_cast<std::int64_t>(16 * i);
        uops.push_back(aluImm(MicroOpcode::Shr, tX, tA, shift, pc));
        uops.push_back(aluImm(MicroOpcode::And, tX, tX, 0xffff, pc));
        uops.push_back(aluImm(MicroOpcode::Shr, tY, tB, shift, pc));
        uops.push_back(aluImm(MicroOpcode::And, tY, tY, 0xffff, pc));
        uops.push_back(alu3(MicroOpcode::Mul, tX, tX, tY, pc));
        uops.push_back(aluImm(MicroOpcode::And, tX, tX, 0xffff, pc));
        uops.push_back(aluImm(MicroOpcode::Shl, tX, tX, shift, pc));
        uops.push_back(alu3(MicroOpcode::Or, tAcc, tAcc, tX, pc));
    }
    uops.push_back(alu3(MicroOpcode::Mov, tA, tAcc, RegId(), pc));
}

/** Per-32-bit-lane immediate shift within a 64-bit chunk. */
void
emitShift32(UopVec &uops, bool left, unsigned count, Addr pc)
{
    if (count >= 32) {
        uops.push_back(aluImm(MicroOpcode::LoadImm, tA, RegId(), 0, pc));
        return;
    }
    std::uint64_t lane_mask;
    if (left) {
        // Clear the low `count` bits of each lane (cross-lane spill).
        const std::uint64_t keep32 = (~0u) << count;
        lane_mask = (static_cast<std::uint64_t>(keep32) << 32) | keep32;
    } else {
        const std::uint64_t keep32 = (~0u) >> count;
        lane_mask = (static_cast<std::uint64_t>(keep32) << 32) | keep32;
    }
    uops.push_back(aluImm(left ? MicroOpcode::Shl : MicroOpcode::Shr, tA,
                          tA, static_cast<std::int64_t>(count), pc));
    uops.push_back(aluImm(MicroOpcode::And, tA, tA,
                          static_cast<std::int64_t>(lane_mask), pc));
}

/** Two packed float32 lanes per chunk via the scalar FP unit. */
void
emitFloat32(UopVec &uops, MicroOpcode scalar_op, Addr pc)
{
    uops.push_back(aluImm(MicroOpcode::LoadImm, tAcc, RegId(), 0, pc));
    for (unsigned i = 0; i < 2; ++i) {
        const auto shift = static_cast<std::int64_t>(32 * i);
        uops.push_back(aluImm(MicroOpcode::Shr, tX, tA, shift, pc));
        uops.push_back(aluImm(MicroOpcode::And, tX, tX,
                              static_cast<std::int64_t>(0xffffffff), pc));
        uops.push_back(aluImm(MicroOpcode::Shr, tY, tB, shift, pc));
        uops.push_back(aluImm(MicroOpcode::And, tY, tY,
                              static_cast<std::int64_t>(0xffffffff), pc));
        uops.push_back(alu3(scalar_op, tX, tX, tY, pc));
        uops.push_back(aluImm(MicroOpcode::Shl, tX, tX, shift, pc));
        uops.push_back(alu3(MicroOpcode::Or, tAcc, tAcc, tX, pc));
    }
    uops.push_back(alu3(MicroOpcode::Mov, tA, tAcc, RegId(), pc));
}

} // namespace

std::optional<UopFlow>
devectorize(const MacroOp &op)
{
    if (!devectorizable(op.opcode))
        return std::nullopt;

    const Addr pc = op.pc;
    const RegId dst = vecReg(op.xdst);
    const RegId src = op.xsrc != Xmm::Invalid ? vecReg(op.xsrc) : RegId();

    UopFlow flow;
    auto &uops = flow.uops;

    for (unsigned chunk = 0; chunk < 2; ++chunk) {
        uops.push_back(vext(tA, dst, chunk, pc));
        if (src.valid())
            uops.push_back(vext(tB, src, chunk, pc));

        switch (op.opcode) {
          case MacroOpcode::MovdqaRR:
            uops.push_back(alu3(MicroOpcode::Mov, tA, tB, RegId(), pc));
            break;

          case MacroOpcode::Paddq:
            uops.push_back(alu3(MicroOpcode::Add, tA, tA, tB, pc));
            break;
          case MacroOpcode::Psubq:
            uops.push_back(alu3(MicroOpcode::Sub, tA, tA, tB, pc));
            break;
          case MacroOpcode::Paddb:
            emitSwarAdd(uops, 1, pc);
            break;
          case MacroOpcode::Paddw:
            emitSwarAdd(uops, 2, pc);
            break;
          case MacroOpcode::Paddd:
            emitSwarAdd(uops, 4, pc);
            break;
          case MacroOpcode::Psubb:
            emitSwarSub(uops, 1, pc);
            break;
          case MacroOpcode::Psubw:
            emitSwarSub(uops, 2, pc);
            break;
          case MacroOpcode::Psubd:
            emitSwarSub(uops, 4, pc);
            break;

          case MacroOpcode::Pand:
            uops.push_back(alu3(MicroOpcode::And, tA, tA, tB, pc));
            break;
          case MacroOpcode::Por:
            uops.push_back(alu3(MicroOpcode::Or, tA, tA, tB, pc));
            break;
          case MacroOpcode::Pxor:
            uops.push_back(alu3(MicroOpcode::Xor, tA, tA, tB, pc));
            break;

          case MacroOpcode::Pmullw:
            emitMul16(uops, pc);
            break;

          case MacroOpcode::PslldI:
            emitShift32(uops, true, static_cast<unsigned>(op.imm), pc);
            break;
          case MacroOpcode::PsrldI:
            emitShift32(uops, false, static_cast<unsigned>(op.imm), pc);
            break;

          case MacroOpcode::Addps:
            emitFloat32(uops, MicroOpcode::FAddS, pc);
            break;
          case MacroOpcode::Subps:
            emitFloat32(uops, MicroOpcode::FSubS, pc);
            break;
          case MacroOpcode::Mulps:
            emitFloat32(uops, MicroOpcode::FMulS, pc);
            break;
          case MacroOpcode::Divps:
            emitFloat32(uops, MicroOpcode::FDivS, pc);
            break;
          case MacroOpcode::Sqrtps: {
            // Unary: operate on the source operand's lanes.
            // tB holds src; route through the float helper by copying.
            uops.push_back(alu3(MicroOpcode::Mov, tA, tB, RegId(), pc));
            uops.push_back(aluImm(MicroOpcode::LoadImm, tAcc, RegId(), 0, pc));
            for (unsigned i = 0; i < 2; ++i) {
                const auto shift = static_cast<std::int64_t>(32 * i);
                uops.push_back(aluImm(MicroOpcode::Shr, tX, tA, shift, pc));
                uops.push_back(aluImm(
                    MicroOpcode::And, tX, tX,
                    static_cast<std::int64_t>(0xffffffff), pc));
                uops.push_back(alu3(MicroOpcode::FSqrtS, tX, tX, RegId(),
                                    pc));
                uops.push_back(aluImm(MicroOpcode::Shl, tX, tX, shift, pc));
                uops.push_back(alu3(MicroOpcode::Or, tAcc, tAcc, tX, pc));
            }
            uops.push_back(alu3(MicroOpcode::Mov, tA, tAcc, RegId(), pc));
            break;
          }

          case MacroOpcode::Addpd:
            uops.push_back(alu3(MicroOpcode::FAddSd, tA, tA, tB, pc));
            break;
          case MacroOpcode::Subpd:
            uops.push_back(alu3(MicroOpcode::FSubSd, tA, tA, tB, pc));
            break;
          case MacroOpcode::Mulpd:
            uops.push_back(alu3(MicroOpcode::FMulSd, tA, tA, tB, pc));
            break;

          default:
            csd_panic("devectorize: unhandled opcode ",
                      static_cast<int>(op.opcode));
        }

        uops.push_back(vins(dst, tA, chunk, pc));
    }

    // Long scalar flows are microsequenced, exactly like other complex
    // translations.
    if (uops.size() > 4)
        flow.fromMsrom = true;
    for (std::size_t i = 0; i < uops.size(); ++i)
        uops[i].uopIdx = static_cast<std::uint8_t>(i < 255 ? i : 255);
    return flow;
}

} // namespace csd
