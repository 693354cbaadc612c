/**
 * @file
 * Tests for the static tier-equivalence prover (verify/tier_equiv.hh).
 *
 * Two obligations beyond ordinary coverage:
 *
 *  - every seeded defect, injected through EntryView (never by
 *    corrupting a real translation), must fail with its exact tier.*
 *    check id, pinned to the exact (entry, op) it was planted at;
 *  - the randomized cross-check: over a deterministic seeded corpus of
 *    generated programs, the prover's symbolic per-macro accounting
 *    must equal — exactly — what FunctionalExecutor::executeInto
 *    measures when it actually runs each cached macro's flow.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/arch_state.hh"
#include "cpu/executor.hh"
#include "decode/flow_cache.hh"
#include "decode/fusion.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
#include "sim/simulation.hh"
#include "verify/tier_equiv.hh"
#include "workloads/aes.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

/**
 * A straight-line fixture exercising every accounting feature the
 * prover replays: plain ALU, memory effects, stack ops the SP tracker
 * eliminates, and a microsequenced rep-stos whose flow carries a
 * micro-loop the flow cache unrolls.
 */
Program
fixtureProgram()
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 4096);
    b.beginSymbol("tier_fixture");
    b.markEntry();
    b.movri(Gpr::Rax, 5);
    b.load(Gpr::Rcx, memAbs(buf + 8));
    b.addi(Gpr::Rcx, 3);
    b.store(memAbs(buf + 16), Gpr::Rcx);
    b.push(Gpr::Rax);
    b.pop(Gpr::Rdx);
    b.repStos(buf + 1024, 4);
    b.nop();
    b.halt();
    b.endSymbol("tier_fixture");
    return b.build();
}

/** One consistent build world: a program's flow cache, populated. */
struct TierFixture
{
    Program prog;
    NativeTranslator translator;
    FlowCache fc;
    EnergyModel energy;
    std::uint64_t epoch = 0;
    /** The cached macros, in program order. */
    std::vector<const SbMacro *> macros;

    explicit TierFixture(Program p = fixtureProgram()) : prog(std::move(p))
    {
        epoch = populateFlowCache(prog, translator, fc, {}, energy);
        fc.forEach([this](const FlowCache::Entry &entry) {
            macros.push_back(&entry.macro);
        });
    }

    /** Findings for @p m, which may be an altered copy of an entry's. */
    VerifyReport
    check(const SbMacro &m,
          const EntryView &view = EntryView::real()) const
    {
        VerifyReport report;
        checkEntry(m, epoch, prog, fc, translator, energy, report, view);
        return report;
    }

    /** Findings over every cached macro. */
    VerifyReport
    check(const EntryView &view = EntryView::real()) const
    {
        VerifyReport report;
        for (const SbMacro *m : macros)
            checkEntry(*m, epoch, prog, fc, translator, energy, report,
                       view);
        return report;
    }

    /** Where a span op sits. */
    struct OpAt
    {
        const SbOp *op = nullptr;     //!< null: not found
        const SbMacro *macro = nullptr;
        std::uint32_t k = 0;          //!< index in the macro's span

        /** The prover's name for the op in a finding message. */
        std::string
        where() const
        {
            return "entry " + hexPc(macro->op->pc) + " (context 0): uop " +
                   std::to_string(k) + " (";
        }
    };

    /** The first span op, in program order, that satisfies @p pred. */
    template <class Pred>
    OpAt
    findOp(Pred pred) const
    {
        for (const SbMacro *m : macros)
            for (std::uint32_t k = 0; k < m->dynCount; ++k)
                if (pred(m->ops[k]))
                    return {&m->ops[k], m, k};
        return {};
    }

    /** The first span op resolved to @p handler. */
    OpAt
    findUop(SbHandler handler) const
    {
        return findOp([handler](const SbOp &op) {
            return op.handler == handler;
        });
    }
};

/** Every finding must carry @p check and sit at @p pc. */
void
expectAllPinned(const VerifyReport &report, const std::string &check,
                Addr pc)
{
    ASSERT_FALSE(report.empty()) << "defect did not fire";
    for (const Finding &finding : report.findings()) {
        EXPECT_EQ(finding.checkId, check) << report.text();
        EXPECT_EQ(finding.pc, pc) << report.text();
    }
}

// ---------------------------------------------------------------------
// Clean proofs
// ---------------------------------------------------------------------

TEST(TierEquiv, FixtureBlockProvesClean)
{
    const TierFixture f;
    ASSERT_EQ(f.macros.size(), f.prog.code().size());
    const VerifyReport report = f.check();
    EXPECT_TRUE(report.empty()) << report.text();

    // The fixture must actually exercise the features the defect tests
    // below plant faults into; a degenerate program would prove
    // nothing.
    EXPECT_NE(f.findUop(SbHandler::Load).op, nullptr);
    EXPECT_NE(f.findUop(SbHandler::Store).op, nullptr);
    EXPECT_NE(f.findUop(SbHandler::Halt).op, nullptr);
    bool has_unroll = false;
    for (const SbMacro *m : f.macros)
        has_unroll = has_unroll || m->flow->loop.has_value();
    EXPECT_TRUE(has_unroll) << "rep-stos micro-loop was not unrolled";
    const bool has_eliminated =
        f.findOp([](const SbOp &op) { return !op.counted(); }).op != nullptr;
    EXPECT_TRUE(has_eliminated)
        << "SP tracking eliminated no stack uops";
}

TEST(TierEquiv, VictimProgramsAuditClean)
{
    const AesWorkload aes = AesWorkload::build(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
         0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
    const RsaWorkload rsa = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e55ed, 24);
    for (const Program *prog : {&aes.program, &rsa.program}) {
        NativeTranslator translator;
        VerifyReport report;
        const TierAudit audit =
            auditProgramTiers(*prog, translator, report);
        EXPECT_TRUE(report.empty()) << report.text();
        EXPECT_EQ(audit.entries, prog->code().size());
        EXPECT_GT(audit.uops, 0u);
    }
}

TEST(TierEquiv, ZeroTripRepStosAuditsClean)
{
    // A zero-trip micro-loop runs its body no times: the entry's span,
    // the flow's expanded count and the reference executor agree.
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 256);
    b.markEntry();
    b.movri(Gpr::Rax, 1);
    b.repStos(buf, 0);
    b.addi(Gpr::Rax, 2);
    b.halt();
    const Program prog = b.build();
    NativeTranslator translator;
    VerifyReport report;
    const TierAudit audit = auditProgramTiers(prog, translator, report);
    EXPECT_TRUE(report.empty()) << report.text();
    EXPECT_EQ(audit.entries, 4u);
}

TEST(TierEquiv, ChainLinksAuditClean)
{
    // The links a simulation's chain set name each macro's
    // fall-through entry, and every resident entry still proves clean
    // against the translator.
    const AesWorkload aes = AesWorkload::build(
        {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7,
         0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c});
    SimParams params;
    params.mode = SimMode::CacheOnly;
    Simulation sim(aes.program, params);
    for (int i = 0; i < 2; ++i) {
        sim.restart();
        sim.runToHalt();
    }
    ASSERT_GT(sim.fastPath().counters().built, 0u);
    NativeTranslator translator;
    const EnergyModel energy;
    VerifyReport report;
    std::size_t linked = 0;
    sim.flowCache().forEach([&](const FlowCache::Entry &entry) {
        linked += entry.macro.next ? 1 : 0;
        checkEntry(entry.macro, translator.translationEpoch(), aes.program,
                   sim.flowCache(), translator, energy, report);
    });
    EXPECT_TRUE(report.empty()) << report.text();
    EXPECT_EQ(linked, sim.fastPath().counters().built);
}

// ---------------------------------------------------------------------
// Seeded defects through EntryView, pinned to (entry, op, check)
// ---------------------------------------------------------------------

TEST(TierEquiv, HandlerDefectPinsHandlerMismatch)
{
    const TierFixture f;
    const TierFixture::OpAt at = f.findUop(SbHandler::Load);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;

    EntryView view = EntryView::real();
    view.handlerOf = [target](const SbOp &op) {
        return &op == target ? SbHandler::Nop : op.handler;
    };

    // A load rebound to Nop breaks both the dispatch check and the
    // memory-probe binding check — every finding is the same id at the
    // same macro, naming the exact span position.
    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.handler-mismatch", target->uop->macroPc);
    for (const Finding &finding : report.findings())
        EXPECT_NE(finding.message.find(at.where()), std::string::npos)
            << finding.message;
}

TEST(TierEquiv, VpuDefectPinsHandlerMismatch)
{
    const TierFixture f;
    const SbOp *target = f.findUop(SbHandler::ScalarAlu).op;
    ASSERT_NE(target, nullptr);

    EntryView view = EntryView::real();
    view.vpuOf = [target](const SbOp &op) {
        return &op == target ? !op.vpu() : op.vpu();
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.handler-mismatch", target->uop->macroPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, EnergyDefectPinsEnergyDrift)
{
    const TierFixture f;
    const TierFixture::OpAt at = f.findUop(SbHandler::Store);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;

    EntryView view = EntryView::real();
    view.energyOf = [target](const SbOp &op) {
        return &op == target ? op.energy + 0.125 : op.energy;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.energy-drift", target->uop->macroPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_NE(report.findings().front().message.find(at.where()),
              std::string::npos);
}

TEST(TierEquiv, CountedDefectPinsAccountingSkew)
{
    const TierFixture f;
    const SbOp *target =
        f.findOp([](const SbOp &op) { return !op.counted(); }).op;
    ASSERT_NE(target, nullptr);

    EntryView view = EntryView::real();
    view.countedOf = [target](const SbOp &op) {
        return &op == target ? !op.counted() : op.counted();
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.accounting-skew", target->uop->macroPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, TimingDefectPinsTimingDrift)
{
    // One store's timing record loses its data-register dependence:
    // the detailed back end would issue it before its data is ready.
    const TierFixture f;
    const TierFixture::OpAt at = f.findUop(SbHandler::Store);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;
    ASSERT_NE(target->timing.src[2], UopTimingRec::noSrc);

    EntryView view = EntryView::real();
    view.timingOf = [target](const SbOp &op) {
        UopTimingRec rec = op.timing;
        if (&op == target)
            rec.src[2] = UopTimingRec::noSrc;
        return rec;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.timing-drift", target->uop->macroPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_NE(report.findings().front().message.find(at.where()),
              std::string::npos);
}

TEST(TierEquiv, EveryTimingFieldDriftIsCaught)
{
    // Each field the detailed consumer reads, perturbed alone on one
    // load, must surface as tier.timing-drift.
    const TierFixture f;
    const SbOp *target = f.findUop(SbHandler::Load).op;
    ASSERT_NE(target, nullptr);

    const std::vector<std::function<void(UopTimingRec &)>> defects = {
        [](UopTimingRec &r) { r.src[0] = 3; },
        [](UopTimingRec &r) { r.src[3] = 0; },
        [](UopTimingRec &r) { r.dst = UopTimingRec::noDst; },
        [](UopTimingRec &r) { r.flagsDst = 0; },
        [](UopTimingRec &r) { r.fu = FuClass::IntAlu; },
        [](UopTimingRec &r) { r.latency = 7; },
        [](UopTimingRec &r) { r.ports.count = 1; },
        [](UopTimingRec &r) { r.mem = UopMemKind::Store; },
        [](UopTimingRec &r) { r.bits ^= UopTimingRec::decoy; },
        [](UopTimingRec &r) { r.bits ^= UopTimingRec::takesSlot; },
        [](UopTimingRec &r) { r.bits ^= UopTimingRec::vpu; },
        [](UopTimingRec &r) { r.bits ^= UopTimingRec::devectExpansion; },
    };
    for (std::size_t d = 0; d < defects.size(); ++d) {
        EntryView view = EntryView::real();
        view.timingOf = [target, &defects, d](const SbOp &op) {
            UopTimingRec rec = op.timing;
            if (&op == target)
                defects[d](rec);
            return rec;
        };
        const VerifyReport report = f.check(view);
        expectAllPinned(report, "tier.timing-drift", target->uop->macroPc);
        EXPECT_EQ(report.findings().size(), 1u) << "defect " << d;
    }
}

// ---------------------------------------------------------------------
// Structural corruption of a (copied) macro header
// ---------------------------------------------------------------------

TEST(TierEquiv, TornUopRangeIsPartialFlush)
{
    // A macro that retires less than its entry's stored span leaves
    // part of itself behind before the chain moves on.
    const TierFixture f;
    SbMacro shortened = *f.macros[1];
    ASSERT_GT(shortened.dynCount, 0u);
    shortened.dynCount -= 1;

    const VerifyReport report = f.check(shortened);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, SkewedDeliveredDeltaIsAccountingSkew)
{
    const TierFixture f;
    SbMacro macro = *f.macros.front();
    macro.delivered += 1;

    const VerifyReport report = f.check(macro);
    ASSERT_TRUE(report.hasCheck("tier.accounting-skew")) << report.text();
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_EQ(report.findings().front().pc, macro.op->pc);
}

TEST(TierEquiv, ReorderedExpansionIsUnrollMismatch)
{
    const TierFixture f;
    // Swap two adjacent span ops within one macro whose identities
    // differ — the count stays right, only the order is wrong.
    std::vector<SbOp> span;
    SbMacro macro;
    bool swapped = false;
    for (const SbMacro *m : f.macros) {
        span.assign(m->ops, m->ops + m->dynCount);
        for (std::size_t k = 0; k + 1 < span.size() && !swapped; ++k) {
            const Uop &a = *span[k].uop;
            const Uop &b = *span[k + 1].uop;
            if (a.op != b.op || a.uopIdx != b.uopIdx) {
                std::swap(span[k], span[k + 1]);
                swapped = true;
            }
        }
        if (swapped) {
            macro = *m;
            macro.ops = span.data();
            break;
        }
    }
    ASSERT_TRUE(swapped);

    // The swapped span is a copy, so the copy check fires too; the
    // order check must add its own finding on the same macro.
    const VerifyReport report = f.check(macro);
    ASSERT_EQ(report.findings().size(), 2u) << report.text();
    bool order_found = false;
    for (const auto &finding : report.findings()) {
        EXPECT_EQ(finding.checkId, "tier.unroll-mismatch") << report.text();
        EXPECT_EQ(finding.pc, macro.op->pc);
        order_found = order_found ||
                      finding.message.find("not the interpreter's expansion "
                                           "order") != std::string::npos;
    }
    EXPECT_TRUE(order_found) << report.text();
}

TEST(TierEquiv, CopiedSpanIsUnrollMismatch)
{
    // A macro must retire its flow-cache entry's own span: a copy
    // (even an equal one) is a second stored form, and would outlive a
    // re-translation of its flow.
    const TierFixture f;
    const SbMacro &first = *f.macros.front();
    const std::vector<SbOp> span(first.ops, first.ops + first.dynCount);
    SbMacro macro = first;
    macro.ops = span.data();

    const VerifyReport report = f.check(macro);
    ASSERT_TRUE(report.hasCheck("tier.unroll-mismatch")) << report.text();
    EXPECT_FALSE(report.hasCheck("tier.timing-drift")) << report.text();
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_EQ(report.findings().front().pc, macro.op->pc);
}

TEST(TierEquiv, DivergedFallThroughIsPartialFlush)
{
    const TierFixture f;
    SbMacro macro = *f.macros.front();
    macro.fallThrough += 2;

    const VerifyReport report = f.check(macro);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, MisdirectedLinkIsPartialFlush)
{
    // A chain link must name the fall-through macro's entry: one that
    // skips it would retire the program out of order.
    const TierFixture f;
    SbMacro macro = *f.macros.front();
    macro.next = f.macros[1];
    EXPECT_TRUE(f.check(macro).empty()) << f.check(macro).text();
    macro.next = f.macros[2];

    const VerifyReport report = f.check(macro);
    expectAllPinned(report, "tier.partial-flush", macro.op->pc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, EmptyBlockIsPartialFlush)
{
    // A header whose span is empty retires nothing of its macro.
    const TierFixture f;
    SbMacro empty = *f.macros.front();
    empty.dynCount = 0;
    empty.ops = nullptr;

    const VerifyReport report = f.check(empty);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

// ---------------------------------------------------------------------
// Offline driver plumbing
// ---------------------------------------------------------------------

TEST(TierEquiv, PopulateFlowCacheMatchesSimulatorProtocol)
{
    const TierFixture f;
    // Every stable, cacheable op must be present under the recorded
    // epoch and the translator's context.
    NativeTranslator translator;
    FlowCache fc;
    const std::uint64_t epoch =
        populateFlowCache(f.prog, translator, fc);
    EXPECT_EQ(epoch, translator.translationEpoch());
    std::size_t cached = 0;
    for (std::size_t slot = 0; slot < f.prog.code().size(); ++slot)
        if (fc.peek(slot, epoch,
                    translator.stableContext(f.prog.code()[slot])))
            ++cached;
    EXPECT_GT(cached, 0u);
}

// ---------------------------------------------------------------------
// Randomized cross-check: symbolic accounting == measured accounting
// ---------------------------------------------------------------------

/** Deterministic xorshift64* — no wall-clock, no std::random_device. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed) {}

    std::uint64_t
    next()
    {
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        return state * 0x2545f4914f6cdd1dull;
    }

    std::uint32_t
    pick(std::uint32_t bound)
    {
        return static_cast<std::uint32_t>(next() % bound);
    }
};

Gpr
randomGpr(Rng &rng)
{
    // Rsp excluded: push/pop must keep a sane stack pointer.
    static const Gpr regs[] = {Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx,
                               Gpr::Rsi, Gpr::Rdi, Gpr::R8,  Gpr::R9,
                               Gpr::R10, Gpr::R11};
    return regs[rng.pick(10)];
}

Program
randomProgram(Rng &rng)
{
    ProgramBuilder b;
    const Addr buf = b.reserveData("buf", 8192);
    b.markEntry();
    const unsigned len = 6 + rng.pick(20);
    for (unsigned i = 0; i < len; ++i) {
        switch (rng.pick(12)) {
          case 0:
            b.movri(randomGpr(rng), rng.pick(1000));
            break;
          case 1:
            b.addi(randomGpr(rng), rng.pick(64));
            break;
          case 2:
            b.load(randomGpr(rng), memAbs(buf + 8 * rng.pick(512)));
            break;
          case 3:
            b.store(memAbs(buf + 8 * rng.pick(512)), randomGpr(rng));
            break;
          case 4:
            b.xor_(randomGpr(rng), randomGpr(rng));
            break;
          case 5:
            b.nop();
            break;
          case 6: {
            // Paired so the SP tracker sees matched stack traffic and
            // the stream carries eliminated uops.
            const Gpr reg = randomGpr(rng);
            b.push(reg);
            b.pop(reg);
            break;
          }
          case 7:
            b.repStos(buf + 64 * rng.pick(8), 1 + rng.pick(4));
            break;
          case 8:
            b.lea(randomGpr(rng), memAbs(buf + rng.pick(4096)));
            break;
          case 9:
            b.movdqaLoad(Xmm::Xmm0, memAbs(buf + 16 * rng.pick(256)));
            break;
          case 10:
            b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
            break;
          case 11:
            b.imul(randomGpr(rng), randomGpr(rng));
            break;
        }
    }
    if (rng.pick(2) == 0) {
        // A conditional branch: its fall-through and its target are
        // both cached.
        b.cmpi(Gpr::Rax, 3);
        const ProgramBuilder::Label skip = b.newLabel();
        b.jcc(Cond::Ne, skip);
        b.nop();
        b.bind(skip);
        b.nop();
    }
    b.halt();
    return b.build();
}

TEST(TierEquivRandom, ProverAccountingEqualsInterpreterMeasurement)
{
    Rng rng(0x243f6a8885a308d3ull);
    std::size_t total_macros = 0;

    for (int pi = 0; pi < 100; ++pi) {
        const Program prog = randomProgram(rng);

        NativeTranslator translator;
        FlowCache fc;
        populateFlowCache(prog, translator, fc);

        // The prover itself must be clean on every generated program.
        VerifyReport report;
        auditProgramTiers(prog, translator, report);
        ASSERT_TRUE(report.empty())
            << "program " << pi << ":\n"
            << report.text();

        // And its symbolic per-macro deltas must equal what actually
        // executing each cached flow measures — exact equality, per
        // macro, for dynamic and delivered uops — and the front-end
        // slots must be the flow's deliveredSlots.
        ArchState state;
        state.loadProgram(prog);
        FunctionalExecutor exec(state);
        fc.forEach([&](const FlowCache::Entry &entry) {
            const SbMacro &m = entry.macro;
            if (m.op->opcode == MacroOpcode::Halt)
                return;  // would end the executor's program
            ++total_macros;
            FlowResult result;
            exec.executeInto(*m.op, *m.flow, result);
            std::uint64_t delivered = 0;
            for (const DynUop &dyn : result.dynUops)
                delivered += dyn.uop->eliminated ? 0 : 1;
            EXPECT_EQ(m.dynCount, result.dynUops.size())
                << "program " << pi << " macro @ 0x" << std::hex
                << m.op->pc;
            EXPECT_EQ(m.delivered, delivered)
                << "program " << pi << " macro @ 0x" << std::hex
                << m.op->pc;
            EXPECT_EQ(m.frontEndSlots, deliveredSlots(*m.flow))
                << "program " << pi << " macro @ 0x" << std::hex
                << m.op->pc;
        });
    }

    // The corpus must genuinely exercise the cache; a generator drift
    // that stops producing cacheable ops would otherwise pass
    // vacuously.
    EXPECT_GT(total_macros, 500u);
}

} // namespace
} // namespace csd
