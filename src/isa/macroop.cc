#include "isa/macroop.hh"

#include <sstream>

#include "common/logging.hh"

namespace csd
{

bool
readsFlags(const MacroOp &op)
{
    switch (op.opcode) {
      case MacroOpcode::Adc:
      case MacroOpcode::AdcI:
      case MacroOpcode::Sbb:
      case MacroOpcode::SbbI:
        return true;
      case MacroOpcode::Jcc:
        return op.cond != Cond::Always;
      default:
        return false;
    }
}

bool
writesFlags(const MacroOp &op)
{
    switch (op.opcode) {
      case MacroOpcode::Add: case MacroOpcode::AddI: case MacroOpcode::AddM:
      case MacroOpcode::Adc: case MacroOpcode::AdcI:
      case MacroOpcode::Sub: case MacroOpcode::SubI: case MacroOpcode::SubM:
      case MacroOpcode::Sbb: case MacroOpcode::SbbI:
      case MacroOpcode::And: case MacroOpcode::AndI: case MacroOpcode::AndM:
      case MacroOpcode::Or:  case MacroOpcode::OrI:  case MacroOpcode::OrM:
      case MacroOpcode::Xor: case MacroOpcode::XorI: case MacroOpcode::XorM:
      case MacroOpcode::Shl: case MacroOpcode::ShlI:
      case MacroOpcode::Shr: case MacroOpcode::ShrI:
      case MacroOpcode::Sar: case MacroOpcode::SarI:
      case MacroOpcode::Rol: case MacroOpcode::RolI:
      case MacroOpcode::Ror: case MacroOpcode::RorI:
      case MacroOpcode::Imul: case MacroOpcode::ImulM:
      case MacroOpcode::Neg:
      case MacroOpcode::Cmp: case MacroOpcode::CmpI: case MacroOpcode::CmpM:
      case MacroOpcode::Test: case MacroOpcode::TestI:
        return true;
      default:
        return false;
    }
}

namespace
{

/** Bytes needed to represent the ModRM + SIB + displacement. */
unsigned
memOperandBytes(const MemOperand &mem)
{
    unsigned bytes = 1; // modrm
    if (mem.hasIndex() || !mem.hasBase())
        bytes += 1; // sib (also needed for absolute addressing)
    if (mem.disp == 0 && mem.hasBase()) {
        // no displacement
    } else if (mem.disp >= -128 && mem.disp <= 127 && mem.hasBase()) {
        bytes += 1;
    } else {
        bytes += 4;
    }
    return bytes;
}

/** Bytes for an immediate of a scalar ALU-immediate instruction. */
unsigned
immBytes(std::int64_t imm)
{
    if (imm >= -128 && imm <= 127)
        return 1;
    return 4;
}

} // namespace

std::uint8_t
encodedLength(const MacroOp &op)
{
    unsigned len = 1; // primary opcode byte
    const bool rex = op.width == OpWidth::W64 ||
        (op.dst != Gpr::Invalid && static_cast<unsigned>(op.dst) >= 8) ||
        (op.src1 != Gpr::Invalid && static_cast<unsigned>(op.src1) >= 8);
    if (rex)
        len += 1;

    switch (op.opcode) {
      case MacroOpcode::MovRR:
        len += 1; // modrm
        break;
      case MacroOpcode::MovRI:
        // mov r64, imm64 is REX + opcode + imm64 (10 bytes); imm32 forms
        // are shorter.
        if (op.imm > INT64_C(0x7fffffff) || op.imm < -INT64_C(0x80000000))
            len += 8;
        else
            len += 4;
        break;
      case MacroOpcode::Load:
      case MacroOpcode::Store:
      case MacroOpcode::Lea:
        len += memOperandBytes(op.mem);
        break;
      case MacroOpcode::StoreImm:
        len += memOperandBytes(op.mem) + 4;
        break;
      case MacroOpcode::Push:
      case MacroOpcode::Pop:
        // Single-byte opcodes (50+r / 58+r), REX only for r8-r15.
        len = (op.dst != Gpr::Invalid &&
               static_cast<unsigned>(op.dst) >= 8) ||
              (op.src1 != Gpr::Invalid &&
               static_cast<unsigned>(op.src1) >= 8) ? 2 : 1;
        break;

      case MacroOpcode::Add: case MacroOpcode::Adc: case MacroOpcode::Sub:
      case MacroOpcode::Sbb: case MacroOpcode::And: case MacroOpcode::Or:
      case MacroOpcode::Xor: case MacroOpcode::Cmp: case MacroOpcode::Test:
      case MacroOpcode::Shl: case MacroOpcode::Shr: case MacroOpcode::Sar:
      case MacroOpcode::Rol: case MacroOpcode::Ror:
      case MacroOpcode::Not: case MacroOpcode::Neg:
        len += 1; // modrm
        break;
      case MacroOpcode::Imul:
        len += 2; // 0x0f 0xaf + modrm
        break;

      case MacroOpcode::AddI: case MacroOpcode::AdcI: case MacroOpcode::SubI:
      case MacroOpcode::SbbI: case MacroOpcode::AndI: case MacroOpcode::OrI:
      case MacroOpcode::XorI: case MacroOpcode::CmpI: case MacroOpcode::TestI:
        len += 1 + immBytes(op.imm);
        break;
      case MacroOpcode::ShlI: case MacroOpcode::ShrI: case MacroOpcode::SarI:
      case MacroOpcode::RolI: case MacroOpcode::RorI:
        len += 2; // modrm + imm8
        break;

      case MacroOpcode::AddM: case MacroOpcode::SubM: case MacroOpcode::AndM:
      case MacroOpcode::OrM: case MacroOpcode::XorM: case MacroOpcode::CmpM:
        len += memOperandBytes(op.mem);
        break;
      case MacroOpcode::ImulM:
        len += 1 + memOperandBytes(op.mem);
        break;

      case MacroOpcode::Jmp:
        len = 5; // jmp rel32
        break;
      case MacroOpcode::Jcc:
        len = 6; // 0x0f 0x8x rel32
        break;
      case MacroOpcode::JmpInd:
        len = 2 + (rex ? 1 : 0);
        break;
      case MacroOpcode::Call:
        len = 5;
        break;
      case MacroOpcode::Ret:
        len = 1;
        break;

      case MacroOpcode::MovdqaLoad:
      case MacroOpcode::MovdqaStore:
        len = 3 + memOperandBytes(op.mem); // 66 0f 6f/7f
        break;
      case MacroOpcode::MovdqaRR:
        len = 4;
        break;
      case MacroOpcode::Paddb: case MacroOpcode::Paddw:
      case MacroOpcode::Paddd: case MacroOpcode::Paddq:
      case MacroOpcode::Psubb: case MacroOpcode::Psubw:
      case MacroOpcode::Psubd: case MacroOpcode::Psubq:
      case MacroOpcode::Pand: case MacroOpcode::Por: case MacroOpcode::Pxor:
      case MacroOpcode::Pmullw:
        len = 4; // 66 0f xx modrm
        break;
      case MacroOpcode::PslldI:
      case MacroOpcode::PsrldI:
        len = 5; // 66 0f 72 modrm imm8
        break;
      case MacroOpcode::Addps: case MacroOpcode::Mulps:
      case MacroOpcode::Subps: case MacroOpcode::Divps:
      case MacroOpcode::Sqrtps:
        len = 3; // 0f xx modrm
        break;
      case MacroOpcode::Addpd: case MacroOpcode::Mulpd:
      case MacroOpcode::Subpd:
        len = 4; // 66 0f xx modrm
        break;

      case MacroOpcode::Clflush:
        len = 2 + memOperandBytes(op.mem); // 0f ae /7
        break;
      case MacroOpcode::Rdtsc:
        len = 2; // 0f 31
        break;
      case MacroOpcode::Nop:
        len = 1;
        break;
      case MacroOpcode::Cpuid:
        len = 2; // 0f a2
        break;
      case MacroOpcode::RepStosI:
        len = 3 + 4 + 4; // pseudo encoding: prefix + opcode + two imm32
        break;
      case MacroOpcode::Halt:
        len = 1;
        break;

      default:
        csd_panic("encodedLength: unhandled opcode ",
                  static_cast<int>(op.opcode));
    }

    if (len > 15)
        len = 15; // x86 architectural limit
    return static_cast<std::uint8_t>(len);
}

std::string
mnemonic(MacroOpcode op)
{
    switch (op) {
      case MacroOpcode::MovRR:       return "mov";
      case MacroOpcode::MovRI:       return "mov";
      case MacroOpcode::Load:        return "mov";
      case MacroOpcode::Store:       return "mov";
      case MacroOpcode::StoreImm:    return "mov";
      case MacroOpcode::Lea:         return "lea";
      case MacroOpcode::Push:        return "push";
      case MacroOpcode::Pop:         return "pop";
      case MacroOpcode::Add:         return "add";
      case MacroOpcode::Adc:         return "adc";
      case MacroOpcode::Sub:         return "sub";
      case MacroOpcode::Sbb:         return "sbb";
      case MacroOpcode::And:         return "and";
      case MacroOpcode::Or:          return "or";
      case MacroOpcode::Xor:         return "xor";
      case MacroOpcode::Shl:         return "shl";
      case MacroOpcode::Shr:         return "shr";
      case MacroOpcode::Sar:         return "sar";
      case MacroOpcode::Rol:         return "rol";
      case MacroOpcode::Ror:         return "ror";
      case MacroOpcode::Imul:        return "imul";
      case MacroOpcode::Not:         return "not";
      case MacroOpcode::Neg:         return "neg";
      case MacroOpcode::Cmp:         return "cmp";
      case MacroOpcode::Test:        return "test";
      case MacroOpcode::AddI:        return "add";
      case MacroOpcode::AdcI:        return "adc";
      case MacroOpcode::SubI:        return "sub";
      case MacroOpcode::SbbI:        return "sbb";
      case MacroOpcode::AndI:        return "and";
      case MacroOpcode::OrI:         return "or";
      case MacroOpcode::XorI:        return "xor";
      case MacroOpcode::ShlI:        return "shl";
      case MacroOpcode::ShrI:        return "shr";
      case MacroOpcode::SarI:        return "sar";
      case MacroOpcode::RolI:        return "rol";
      case MacroOpcode::RorI:        return "ror";
      case MacroOpcode::CmpI:        return "cmp";
      case MacroOpcode::TestI:       return "test";
      case MacroOpcode::AddM:        return "add";
      case MacroOpcode::SubM:        return "sub";
      case MacroOpcode::AndM:        return "and";
      case MacroOpcode::OrM:         return "or";
      case MacroOpcode::XorM:        return "xor";
      case MacroOpcode::CmpM:        return "cmp";
      case MacroOpcode::ImulM:       return "imul";
      case MacroOpcode::Jmp:         return "jmp";
      case MacroOpcode::Jcc:         return "j";
      case MacroOpcode::JmpInd:      return "jmp";
      case MacroOpcode::Call:        return "call";
      case MacroOpcode::Ret:         return "ret";
      case MacroOpcode::MovdqaLoad:  return "movdqa";
      case MacroOpcode::MovdqaStore: return "movdqa";
      case MacroOpcode::MovdqaRR:    return "movdqa";
      case MacroOpcode::Paddb:       return "paddb";
      case MacroOpcode::Paddw:       return "paddw";
      case MacroOpcode::Paddd:       return "paddd";
      case MacroOpcode::Paddq:       return "paddq";
      case MacroOpcode::Psubb:       return "psubb";
      case MacroOpcode::Psubw:       return "psubw";
      case MacroOpcode::Psubd:       return "psubd";
      case MacroOpcode::Psubq:       return "psubq";
      case MacroOpcode::Pand:        return "pand";
      case MacroOpcode::Por:         return "por";
      case MacroOpcode::Pxor:        return "pxor";
      case MacroOpcode::Pmullw:      return "pmullw";
      case MacroOpcode::PslldI:      return "pslld";
      case MacroOpcode::PsrldI:      return "psrld";
      case MacroOpcode::Addps:       return "addps";
      case MacroOpcode::Mulps:       return "mulps";
      case MacroOpcode::Subps:       return "subps";
      case MacroOpcode::Addpd:       return "addpd";
      case MacroOpcode::Mulpd:       return "mulpd";
      case MacroOpcode::Subpd:       return "subpd";
      case MacroOpcode::Divps:       return "divps";
      case MacroOpcode::Sqrtps:      return "sqrtps";
      case MacroOpcode::Clflush:     return "clflush";
      case MacroOpcode::Rdtsc:       return "rdtsc";
      case MacroOpcode::Nop:         return "nop";
      case MacroOpcode::Cpuid:       return "cpuid";
      case MacroOpcode::RepStosI:    return "repstos";
      case MacroOpcode::Halt:        return "hlt";
      default:                       return "???";
    }
}

namespace
{

std::string
memString(const MemOperand &mem)
{
    std::ostringstream os;
    os << "[";
    bool any = false;
    if (mem.hasBase()) {
        os << gprName(mem.base);
        any = true;
    }
    if (mem.hasIndex()) {
        if (any)
            os << "+";
        os << gprName(mem.index);
        if (mem.scale != 1)
            os << "*" << static_cast<int>(mem.scale);
        any = true;
    }
    if (mem.disp != 0 || !any) {
        if (any && mem.disp >= 0)
            os << "+";
        os << "0x" << std::hex << mem.disp;
    }
    os << "]";
    return os.str();
}

} // namespace

std::string
disassemble(const MacroOp &op)
{
    std::ostringstream os;
    os << std::hex << "0x" << op.pc << std::dec << ": ";
    if (op.opcode == MacroOpcode::Jcc) {
        os << "j" << condName(op.cond) << " 0x" << std::hex << op.target;
        return os.str();
    }
    os << mnemonic(op.opcode);

    switch (op.opcode) {
      case MacroOpcode::MovRR:
        os << " " << gprName(op.dst) << ", " << gprName(op.src1);
        break;
      case MacroOpcode::MovRI:
        os << " " << gprName(op.dst) << ", 0x" << std::hex << op.imm;
        break;
      case MacroOpcode::Load:
        os << " " << gprName(op.dst) << ", " << memString(op.mem);
        break;
      case MacroOpcode::Store:
        os << " " << memString(op.mem) << ", " << gprName(op.src1);
        break;
      case MacroOpcode::StoreImm:
        os << " " << memString(op.mem) << ", 0x" << std::hex << op.imm;
        break;
      case MacroOpcode::Lea:
        os << " " << gprName(op.dst) << ", " << memString(op.mem);
        break;
      case MacroOpcode::Push:
        os << " " << gprName(op.src1);
        break;
      case MacroOpcode::Pop:
        os << " " << gprName(op.dst);
        break;
      case MacroOpcode::Add: case MacroOpcode::Adc: case MacroOpcode::Sub:
      case MacroOpcode::Sbb: case MacroOpcode::And: case MacroOpcode::Or:
      case MacroOpcode::Xor: case MacroOpcode::Shl: case MacroOpcode::Shr:
      case MacroOpcode::Sar: case MacroOpcode::Rol: case MacroOpcode::Ror:
      case MacroOpcode::Imul: case MacroOpcode::Cmp: case MacroOpcode::Test:
        os << " " << gprName(op.dst) << ", " << gprName(op.src1);
        break;
      case MacroOpcode::Not: case MacroOpcode::Neg:
        os << " " << gprName(op.dst);
        break;
      case MacroOpcode::AddI: case MacroOpcode::AdcI: case MacroOpcode::SubI:
      case MacroOpcode::SbbI: case MacroOpcode::AndI: case MacroOpcode::OrI:
      case MacroOpcode::XorI: case MacroOpcode::ShlI: case MacroOpcode::ShrI:
      case MacroOpcode::SarI: case MacroOpcode::RolI: case MacroOpcode::RorI:
      case MacroOpcode::CmpI: case MacroOpcode::TestI:
        os << " " << gprName(op.dst) << ", 0x" << std::hex << op.imm;
        break;
      case MacroOpcode::AddM: case MacroOpcode::SubM: case MacroOpcode::AndM:
      case MacroOpcode::OrM: case MacroOpcode::XorM: case MacroOpcode::CmpM:
      case MacroOpcode::ImulM:
        os << " " << gprName(op.dst) << ", " << memString(op.mem);
        break;
      case MacroOpcode::Jmp: case MacroOpcode::Call:
        os << " 0x" << std::hex << op.target;
        break;
      case MacroOpcode::JmpInd:
        os << " " << gprName(op.src1);
        break;
      case MacroOpcode::MovdqaLoad:
        os << " " << xmmName(op.xdst) << ", " << memString(op.mem);
        break;
      case MacroOpcode::MovdqaStore:
        os << " " << memString(op.mem) << ", " << xmmName(op.xsrc);
        break;
      case MacroOpcode::MovdqaRR:
      case MacroOpcode::Paddb: case MacroOpcode::Paddw:
      case MacroOpcode::Paddd: case MacroOpcode::Paddq:
      case MacroOpcode::Psubb: case MacroOpcode::Psubw:
      case MacroOpcode::Psubd: case MacroOpcode::Psubq:
      case MacroOpcode::Pand: case MacroOpcode::Por: case MacroOpcode::Pxor:
      case MacroOpcode::Pmullw:
      case MacroOpcode::Addps: case MacroOpcode::Mulps:
      case MacroOpcode::Subps: case MacroOpcode::Addpd:
      case MacroOpcode::Mulpd: case MacroOpcode::Subpd:
      case MacroOpcode::Divps: case MacroOpcode::Sqrtps:
        os << " " << xmmName(op.xdst) << ", " << xmmName(op.xsrc);
        break;
      case MacroOpcode::PslldI: case MacroOpcode::PsrldI:
        os << " " << xmmName(op.xdst) << ", " << op.imm;
        break;
      default:
        break;
    }
    return os.str();
}

} // namespace csd
