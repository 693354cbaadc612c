/**
 * @file
 * Auto-translated microcode update demo (paper §III-C, Fig. 2).
 *
 * A "runtime system" authors a microcode update in native x86 code —
 * here, a load-latency instrumentation that shadows every Load with an
 * extra counter update in decoder temporaries — seals it with the
 * integrity checksum, and pushes it into the processor. The MCU engine
 * verifies, auto-translates, optimizes, and installs it; the decoder
 * then applies it to every subsequent Load translation. A tampered
 * update is also pushed to show the verification path.
 *
 *   ./examples/microcode_update
 */

#include <cstdio>

#include "common/env.hh"
#include "csd/csd.hh"
#include "sim/simulation.hh"

using namespace csd;

int
main()
{
    // A bad CSD_* knob exits 2 with one message, not an abort.
    Knobs::processOrExit();

    // ------------------------------------------------------------------
    // 1. Author the update in plain x86 (the API exposed to software
    //    is the entire native ISA, auto-translated by the decoder).
    // ------------------------------------------------------------------
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Load;
    entry.placement = McuPlacement::Append;
    {
        ProgramBuilder b;
        // Instrumentation: bump a counter register. Registers in the
        // update are remapped onto decoder temporaries, invisible to
        // the program.
        b.movrr(Gpr::Rax, Gpr::Rax);  // touch -> keeps temp live
        b.addi(Gpr::Rax, 1);
        entry.nativeCode = b.build().code();
    }
    blob.entries.push_back(entry);
    sealMcu(blob);

    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);

    // ------------------------------------------------------------------
    // 2. Push it through the verification + auto-translation path.
    // ------------------------------------------------------------------
    std::string error;
    if (!csd.mcu().applyUpdate(blob, &error)) {
        std::printf("unexpected rejection: %s\n", error.c_str());
        return 1;
    }
    std::printf("update accepted: %zu rule(s) installed\n",
                csd.mcu().size());
    const CustomTranslation *rule = csd.mcu().lookup(MacroOpcode::Load);
    std::printf("auto-translated custom uops for Load (%s):\n",
                rule->placement == McuPlacement::Append ? "appended"
                                                        : "prepended");
    for (const Uop &uop : rule->uops)
        std::printf("    %s\n", toString(uop).c_str());

    // A tampered copy must fail the integrity check.
    McuBlob tampered = blob;
    tampered.entries[0].nativeCode[0].imm = 1337;
    if (!csd.mcu().applyUpdate(tampered, &error))
        std::printf("tampered update rejected: %s\n", error.c_str());

    // ------------------------------------------------------------------
    // 3. Run a program and watch the instrumentation flow through.
    // ------------------------------------------------------------------
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 64);
    auto loop = b.newLabel();
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(buf));
    b.movri(Gpr::Rcx, 100);
    b.bind(loop);
    b.load(Gpr::Rax, memAt(Gpr::Rbx));       // instrumented
    b.store(memAt(Gpr::Rbx, 8), Gpr::Rax);   // untouched
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, loop);
    b.halt();
    Program prog = b.build();

    csd.setMcuMode(true);
    Simulation sim(prog);
    sim.setCsd(&csd);
    sim.runToHalt();

    std::printf("\nprogram ran %llu instructions, %llu uops "
                "(instrumentation adds ~1 uop per load)\n",
                static_cast<unsigned long long>(sim.instructions()),
                static_cast<unsigned long long>(sim.uopsExecuted()));
    std::printf("mcu-translated flows: %llu\n",
                static_cast<unsigned long long>(
                    csd.stats().counterValue("mcu_flows")));
    std::printf("architectural result unchanged: buf[8..15] = 0x%llx\n",
                static_cast<unsigned long long>(
                    sim.state().mem.read(buf + 8, 8)));
    return 0;
}
