/**
 * @file
 * Random well-formed test programs: a loop over a random body of ALU,
 * memory, vector, stack, branch-over and serializing instructions
 * that indexes one 64 KiB buffer. Shared by the robustness fuzzer
 * (tests/sim/test_fuzz.cc) and the host-tier differential
 * (tests/sim/test_superblock.cc).
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
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::R12, 0);
    b.movri(Gpr::Rbp, 8);  // outer trip count
    b.bind(outer);

    for (unsigned i = 0; i < body_instrs; ++i) {
        const Gpr dst = static_cast<Gpr>(8 + rng.below(4));
        const Gpr src = static_cast<Gpr>(8 + rng.below(4));
        switch (rng.below(12)) {
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
          default:
            b.add(dst, src);
            break;
        }
    }
    b.subi(Gpr::Rbp, 1);
    b.jcc(Cond::Ne, outer);
    b.halt();
    return b.build();
}

} // namespace csd::testsupport

#endif // CSD_TESTS_SUPPORT_RANDOM_PROGRAM_HH
