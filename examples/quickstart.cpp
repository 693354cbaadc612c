/**
 * @file
 * Quickstart: build a tiny program with the assembler API, run it on
 * the detailed simulator, flip on a custom translation context via the
 * MSR interface, and read the statistics back.
 *
 *   ./examples/quickstart
 */

#include <cstdio>
#include <iostream>

#include "csd/csd.hh"
#include "sim/simulation.hh"

using namespace csd;

int
main()
{
    // ------------------------------------------------------------------
    // 1. Write a program with the assembler-style builder.
    // ------------------------------------------------------------------
    ProgramBuilder b;
    const Addr secret = b.defineDataWords("secret", {0x1234beef});
    const Addr table = b.reserveData("lookup_table", 4 * 64, 64);

    auto loop = b.newLabel();
    b.markEntry();
    b.movri(Gpr::Rbx, static_cast<std::int64_t>(secret));
    b.load(Gpr::Rax, memAt(Gpr::Rbx, 0, MemSize::B4));  // load the secret
    b.movri(Gpr::Rcx, 50);
    b.bind(loop);
    // A key-dependent table lookup (the kind of access stealth mode
    // obfuscates).
    b.movrr(Gpr::Rdi, Gpr::Rax);
    b.andi(Gpr::Rdi, 3);
    b.load(Gpr::Rdx, memTable(table, Gpr::Rdi, 4, MemSize::B4));
    b.aluImm(MacroOpcode::RolI, Gpr::Rax, 7);
    b.subi(Gpr::Rcx, 1);
    b.jcc(Cond::Ne, loop);
    b.halt();
    Program prog = b.build();

    std::printf("program: %zu static instructions\n", prog.size());
    for (std::size_t i = 0; i < 5; ++i)
        std::printf("  %s\n", disassemble(prog.code()[i]).c_str());

    // ------------------------------------------------------------------
    // 2. Wire up the machine: DIFT + context-sensitive decoder.
    // ------------------------------------------------------------------
    MsrFile msrs;
    TaintTracker taint;
    ContextSensitiveDecoder csd(msrs, &taint);

    // The defense: taint the secret, cover the table with decoys. Arming
    // ends in one control MSR write, and the decoder switches context
    // (register tracking, paper SIII-B) -- no recompilation, no binary
    // rewrite.
    DefenseConfig defense;
    defense.enabled = true;
    defense.decoyDRange = AddrRange(table, table + 4 * 64);
    defense.taintSources = {AddrRange(secret, secret + 4)};
    defense.watchdogPeriod = 500;
    csd.arm(defense);

    Simulation sim(prog);
    sim.setTaintTracker(&taint);
    sim.setCsd(&csd);

    // ------------------------------------------------------------------
    // 3. Run and inspect.
    // ------------------------------------------------------------------
    sim.runToHalt();

    std::printf("\ncycles:            %llu\n",
                static_cast<unsigned long long>(sim.cycles()));
    std::printf("instructions:      %llu\n",
                static_cast<unsigned long long>(sim.instructions()));
    std::printf("uops executed:     %llu\n",
                static_cast<unsigned long long>(sim.uopsExecuted()));
    std::printf("decoy uops:        %llu\n",
                static_cast<unsigned long long>(
                    sim.stats().counterValue("decoy_uops_executed")));
    std::printf("uop-cache hitrate: %.1f%%\n",
                100.0 * sim.frontend().uopCache().hitRate());

    std::printf("\nfull statistics dump:\n");
    sim.stats().dump(std::cout);
    csd.stats().dump(std::cout);
    return 0;
}
