/**
 * @file
 * Random well-formed test programs: a loop over a random body of ALU,
 * memory, vector, stack, branch-over, serializing, call/return,
 * indirect-jump, cache-flush and cycle-counter instructions that
 * indexes one 64 KiB buffer. Shared by the robustness fuzzer
 * (tests/sim/test_fuzz.cc) and the flow-cache differential
 * (tests/sim/test_chain.cc).
 */

#ifndef CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
#define CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH

#include "common/random.hh"
#include "isa/program.hh"

namespace csd::testsupport
{

/** Size of the data buffer randomProgram() reserves as "buf". */
constexpr std::size_t randomProgramBufBytes = 64 * 1024;

inline Program
randomProgram(Random &rng, unsigned body_instrs)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", randomProgramBufBytes, 64);
    const auto mask =
        static_cast<std::int64_t>((randomProgramBufBytes - 1) & ~63ull);

    auto outer = b.newLabel();
    // Subroutines, emitted after the halt when the body calls them.
    auto sub_ret = b.newLabel();
    auto sub_ind = b.newLabel();
    bool uses_ret = false;
    bool uses_ind = false;
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::R12, 0);
    b.movri(Gpr::Rbp, 8);  // outer trip count
    b.bind(outer);

    for (unsigned i = 0; i < body_instrs; ++i) {
        const Gpr dst = static_cast<Gpr>(8 + rng.below(4));
        const Gpr src = static_cast<Gpr>(8 + rng.below(4));
        switch (rng.below(16)) {
          case 0:
            b.load(dst, memIdx(Gpr::Rbx, Gpr::R12, 1, 0, MemSize::B8));
            break;
          case 1:
            b.store(memIdx(Gpr::Rbx, Gpr::R12, 1, 8, MemSize::B8), src);
            break;
          case 2:
            b.addi(Gpr::R12, 64);
            b.andi(Gpr::R12, mask);
            break;
          case 3:
            b.imul(dst, src);
            break;
          case 4: {
            auto skip = b.newLabel();
            b.testi(dst, 3);
            b.jcc(Cond::Ne, skip);
            b.xori(dst, 0x55);
            b.bind(skip);
            break;
          }
          case 5:
            b.push(src);
            b.pop(dst);
            break;
          case 6:
            b.vecOp(MacroOpcode::Paddd, static_cast<Xmm>(rng.below(4)),
                    static_cast<Xmm>(rng.below(4)));
            break;
          case 7:
            b.vecOp(MacroOpcode::Pmullw, static_cast<Xmm>(rng.below(4)),
                    static_cast<Xmm>(rng.below(4)));
            break;
          case 8:
            b.aluMem(MacroOpcode::XorM, dst,
                     memIdx(Gpr::Rbx, Gpr::R12, 1, 16, MemSize::B4),
                     OpWidth::W32);
            break;
          case 9:
            b.aluImm(MacroOpcode::RolI, dst, 1 + rng.below(31));
            break;
          case 10:
            b.cpuid();
            break;
          case 11:
            b.call(sub_ret);
            uses_ret = true;
            break;
          case 12:
            b.call(sub_ind);
            uses_ind = true;
            break;
          case 13:
            b.clflush(memIdx(Gpr::Rbx, Gpr::R12, 1, 0, MemSize::B8));
            break;
          case 14:
            // The cycle counter picks the line to flush, so a run that
            // read a stale count shows in the cache statistics; the
            // value is then dropped so registers stay independent of
            // timing (CSD modes must preserve them exactly).
            b.rdtsc();
            b.andi(Gpr::Rax, mask);
            b.clflush(memIdx(Gpr::Rbx, Gpr::Rax, 1, 0, MemSize::B8));
            b.movri(Gpr::Rax, 0);
            break;
          default:
            b.add(dst, src);
            break;
        }
    }
    b.subi(Gpr::Rbp, 1);
    b.jcc(Cond::Ne, outer);
    b.halt();
    if (uses_ret) {
        b.bind(sub_ret);
        b.xori(Gpr::R11, 0x3c);
        b.ret();
    }
    if (uses_ind) {
        // Return through the stack by hand: pop the return address and
        // jump to it.
        b.bind(sub_ind);
        b.addi(Gpr::R10, 7);
        b.pop(Gpr::R13);
        b.jmpInd(Gpr::R13);
    }
    return b.build();
}

} // namespace csd::testsupport

#endif // CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
