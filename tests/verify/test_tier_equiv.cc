/**
 * @file
 * Tests for the static tier-equivalence prover (verify/tier_equiv.hh).
 *
 * Two obligations beyond ordinary coverage:
 *
 *  - every seeded defect, injected through SuperblockView (never by
 *    corrupting a real build), must fail with its exact tier.* check
 *    id, pinned to the exact (block, op) it was planted at;
 *  - the randomized cross-check: over a deterministic seeded corpus of
 *    generated programs, the prover's symbolic per-macro accounting
 *    must equal — exactly — what FunctionalExecutor::executeInto
 *    measures when it actually runs each compiled macro's flow.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/arch_state.hh"
#include "cpu/executor.hh"
#include "decode/flow_cache.hh"
#include "decode/fusion.hh"
#include "decode/superblock.hh"
#include "decode/translator.hh"
#include "isa/program.hh"
#include "power/energy.hh"
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
 * micro-loop the builder unrolls.
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

/** One consistent build world plus the block compiled at entry. */
struct TierFixture
{
    Program prog;
    NativeTranslator translator;
    FlowCache fc;
    EnergyModel energy;
    SuperblockCache blocks;  //!< none live: regions never chain
    std::unique_ptr<Superblock> block;

    explicit TierFixture(Program p = fixtureProgram()) : prog(std::move(p))
    {
        populateFlowCache(prog, translator, fc, {}, energy);
        block = SuperblockBuilder(prog, fc, translator, blocks)
                    .build(prog.entry());
    }

    VerifyReport
    check(const Superblock &b,
          const SuperblockView &view = SuperblockView::real()) const
    {
        VerifyReport report;
        checkSuperblock(b, prog, fc, translator, energy, report, view);
        return report;
    }

    VerifyReport
    check(const SuperblockView &view = SuperblockView::real()) const
    {
        return check(*block, view);
    }

    /** Where in the block a span op sits. */
    struct OpAt
    {
        const SbOp *op = nullptr;  //!< null: not found
        std::size_t macro = 0;     //!< index in block->macros
        std::uint32_t k = 0;       //!< index in that macro's span

        /** The prover's name for the op in a finding message. */
        std::string
        where() const
        {
            return "macro " + std::to_string(macro) + " uop " +
                   std::to_string(k) + " (";
        }
    };

    /** The first span op, in retire order, that satisfies @p pred. */
    template <class Pred>
    OpAt
    findOp(Pred pred) const
    {
        for (std::size_t mi = 0; mi < block->macros.size(); ++mi) {
            const SbMacro &m = *block->macros[mi];
            for (std::uint32_t k = 0; k < m.dynCount; ++k)
                if (pred(m.ops[k]))
                    return {&m.ops[k], mi, k};
        }
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
    ASSERT_NE(f.block, nullptr);
    const VerifyReport report = f.check();
    EXPECT_TRUE(report.empty()) << report.text();

    // The fixture must actually exercise the features the defect tests
    // below plant faults into; a degenerate block would prove nothing.
    EXPECT_NE(f.findUop(SbHandler::Load).op, nullptr);
    EXPECT_NE(f.findUop(SbHandler::Store).op, nullptr);
    const bool has_unroll = std::any_of(
        f.block->macros.begin(), f.block->macros.end(),
        [](const SbMacro *m) { return m->flow->loop.has_value(); });
    EXPECT_TRUE(has_unroll) << "rep-stos micro-loop was not unrolled";
    const bool has_eliminated =
        f.findOp([](const SbOp &op) { return !op.counted(); }).op != nullptr;
    EXPECT_TRUE(has_eliminated)
        << "SP tracking eliminated no stack uops";

    // The block holds no translation of its own: each macro is its
    // flow-cache entry's, span and all.
    for (const SbMacro *m : f.block->macros) {
        const auto slot =
            static_cast<std::size_t>(m->op - f.prog.code().data());
        const FlowCache::Entry *entry =
            f.fc.peek(slot, f.block->epoch, m->ctx);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(m, &entry->macro);
        EXPECT_EQ(m->ops, entry->ops.data());
    }
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
        EXPECT_GT(audit.blocks, 0u);
        EXPECT_GT(audit.uops, 0u);
    }
}

// ---------------------------------------------------------------------
// Seeded defects through SuperblockView, pinned to (block, op, check)
// ---------------------------------------------------------------------

TEST(TierEquiv, HandlerDefectPinsHandlerMismatch)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    const TierFixture::OpAt at = f.findUop(SbHandler::Load);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;

    SuperblockView view = SuperblockView::real();
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
    ASSERT_NE(f.block, nullptr);
    const SbOp *target = f.findUop(SbHandler::ScalarAlu).op;
    ASSERT_NE(target, nullptr);

    SuperblockView view = SuperblockView::real();
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
    ASSERT_NE(f.block, nullptr);
    const TierFixture::OpAt at = f.findUop(SbHandler::Store);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;

    SuperblockView view = SuperblockView::real();
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
    ASSERT_NE(f.block, nullptr);
    const SbOp *target =
        f.findOp([](const SbOp &op) { return !op.counted(); }).op;
    ASSERT_NE(target, nullptr);

    SuperblockView view = SuperblockView::real();
    view.countedOf = [target](const SbOp &op) {
        return &op == target ? !op.counted() : op.counted();
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.accounting-skew", target->uop->macroPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, DroppedEpochGuardPinsUnguardedWindow)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    // Plant on a macro with a memory effect: the store.
    const TierFixture::OpAt at = f.findUop(SbHandler::Store);
    ASSERT_NE(at.op, nullptr);
    const SbMacro *target = f.block->macros[at.macro];

    SuperblockView view = SuperblockView::real();
    view.guardsOf = [target](const SbMacro &macro) {
        const std::uint8_t guards = macro.guards;
        return &macro == target
                   ? static_cast<std::uint8_t>(guards & ~sbGuardEpoch)
                   : guards;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.unguarded-epoch-window", target->op->pc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, DroppedStabilityProbePinsUnguardedWindow)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    // Stability must be probed even on effect-free macros.
    const TierFixture::OpAt at = f.findUop(SbHandler::ScalarAlu);
    ASSERT_NE(at.op, nullptr);
    const SbMacro *target = f.block->macros[at.macro];

    SuperblockView view = SuperblockView::real();
    view.guardsOf = [target](const SbMacro &macro) {
        const std::uint8_t guards = macro.guards;
        return &macro == target
                   ? static_cast<std::uint8_t>(guards & ~sbGuardStability)
                   : guards;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.unguarded-epoch-window", target->op->pc);
}

TEST(TierEquiv, DroppedContextGuardPinsUnguardedWindowOnVectorMacro)
{
    // A devectorization toggle moves a vector op's stable context
    // without an epoch bump, so only devectorizable macros need the
    // context compare: dropping it everywhere flags the vector macro
    // alone.
    ProgramBuilder b;
    b.markEntry();
    b.movri(Gpr::Rax, 5);
    b.vecOp(MacroOpcode::Paddd, Xmm::Xmm0, Xmm::Xmm1);
    b.addi(Gpr::Rax, 1);
    b.halt();
    const TierFixture f(b.build());
    ASSERT_NE(f.block, nullptr);
    ASSERT_TRUE(f.check().empty()) << f.check().text();
    const SbMacro &vector = *f.block->macros[1];
    ASSERT_EQ(vector.op->opcode, MacroOpcode::Paddd);

    SuperblockView view = SuperblockView::real();
    view.guardsOf = [](const SbMacro &macro) {
        return static_cast<std::uint8_t>(macro.guards & ~sbGuardContext);
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.unguarded-epoch-window", vector.op->pc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
}

TEST(TierEquiv, NonFlushingExitPinsPartialFlush)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    SuperblockView view = SuperblockView::real();
    view.exitMetaOf = [](SbExit exit) {
        SbExitMeta meta = sbExitMeta(exit);
        if (exit == SbExit::Branch)
            meta.flushesPrefix = false;
        return meta;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.partial-flush", f.block->entryPc);
    EXPECT_NE(report.findings().front().message.find("branch"),
              std::string::npos);
}

TEST(TierEquiv, ChainingEpochBumpExitPinsPartialFlush)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    SuperblockView view = SuperblockView::real();
    view.exitMetaOf = [](SbExit exit) {
        SbExitMeta meta = sbExitMeta(exit);
        if (exit == SbExit::EpochBump)
            meta.resumesInterpreter = false;
        return meta;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.partial-flush", f.block->entryPc);
}

TEST(TierEquiv, ReenteringEpochBumpPinsPartialFlush)
{
    // An epoch bump stales every translation in the block: resuming it
    // after the interpreter step would replay stale flows.
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    SuperblockView view = SuperblockView::real();
    view.exitMetaOf = [](SbExit exit) {
        SbExitMeta meta = sbExitMeta(exit);
        if (exit == SbExit::EpochBump) {
            meta.reentersBlock = true;
            meta.interpreterMacros = 1;
        }
        return meta;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.partial-flush", f.block->entryPc);
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_NE(report.findings().front().message.find("epoch_bump"),
              std::string::npos);
}

TEST(TierEquiv, UnstableReentryAtVetoedMacroPinsPartialFlush)
{
    // Re-entering at the vetoed macro k (not k+1) would run the stable
    // translation the stability probe just refused.
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    SuperblockView view = SuperblockView::real();
    view.exitMetaOf = [](SbExit exit) {
        SbExitMeta meta = sbExitMeta(exit);
        if (exit == SbExit::Unstable)
            meta.interpreterMacros = 0;
        return meta;
    };

    const VerifyReport report = f.check(view);
    expectAllPinned(report, "tier.partial-flush", f.block->entryPc);
    EXPECT_NE(report.findings().front().message.find("unstable"),
              std::string::npos);
}

TEST(TierEquiv, TimingDefectPinsTimingDrift)
{
    // One store's timing record loses its data-register dependence:
    // the detailed back end would issue it before its data is ready.
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    const TierFixture::OpAt at = f.findUop(SbHandler::Store);
    ASSERT_NE(at.op, nullptr);
    const SbOp *target = at.op;
    ASSERT_NE(target->timing.src[2], UopTimingRec::noSrc);

    SuperblockView view = SuperblockView::real();
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
    ASSERT_NE(f.block, nullptr);
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
        SuperblockView view = SuperblockView::real();
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
// Structural corruption of a (copied) block
// ---------------------------------------------------------------------

TEST(TierEquiv, TornUopRangeIsPartialFlush)
{
    // A macro that retires less than its entry's stored span leaves
    // part of itself behind at any exit after it.
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    ASSERT_GE(f.block->macros.size(), 2u);
    Superblock torn = *f.block;
    SbMacro shortened = *torn.macros[1];
    ASSERT_GT(shortened.dynCount, 0u);
    shortened.dynCount -= 1;
    torn.macros[1] = &shortened;

    const VerifyReport report = f.check(torn);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, SkewedDeliveredDeltaIsAccountingSkew)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    Superblock skewed = *f.block;
    SbMacro macro = *skewed.macros.front();
    macro.delivered += 1;
    skewed.macros.front() = &macro;

    const VerifyReport report = f.check(skewed);
    ASSERT_TRUE(report.hasCheck("tier.accounting-skew")) << report.text();
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_EQ(report.findings().front().pc, macro.op->pc);
}

TEST(TierEquiv, ReorderedExpansionIsUnrollMismatch)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    Superblock shuffled = *f.block;
    // Swap two adjacent span ops within one macro whose identities
    // differ — the count stays right, only the order is wrong.
    std::vector<SbOp> span;
    SbMacro macro;
    bool swapped = false;
    for (const SbMacro *&m : shuffled.macros) {
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
            m = &macro;
            break;
        }
    }
    ASSERT_TRUE(swapped);

    // The swapped span is a copy, so the copy check fires too; the
    // order check must add its own finding on the same macro.
    const VerifyReport report = f.check(shuffled);
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
    // A block macro must retire its flow-cache entry's own span: a
    // copy (even an equal one) is a second stored form, and would
    // outlive a re-translation of its flow.
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    Superblock copied = *f.block;
    const SbMacro &first = *copied.macros.front();
    const std::vector<SbOp> span(first.ops, first.ops + first.dynCount);
    SbMacro macro = first;
    macro.ops = span.data();
    copied.macros.front() = &macro;

    const VerifyReport report = f.check(copied);
    ASSERT_TRUE(report.hasCheck("tier.unroll-mismatch")) << report.text();
    EXPECT_FALSE(report.hasCheck("tier.timing-drift")) << report.text();
    EXPECT_EQ(report.findings().size(), 1u) << report.text();
    EXPECT_EQ(report.findings().front().pc, macro.op->pc);
}

TEST(TierEquiv, DivergedFallThroughIsPartialFlush)
{
    const TierFixture f;
    ASSERT_NE(f.block, nullptr);
    Superblock diverged = *f.block;
    SbMacro macro = *diverged.macros.front();
    macro.fallThrough += 2;
    diverged.macros.front() = &macro;

    const VerifyReport report = f.check(diverged);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

TEST(TierEquiv, EmptyBlockIsPartialFlush)
{
    const TierFixture f;
    Superblock empty;
    empty.entryPc = f.prog.entry();

    const VerifyReport report = f.check(empty);
    EXPECT_TRUE(report.hasCheck("tier.partial-flush")) << report.text();
}

// ---------------------------------------------------------------------
// Offline driver plumbing
// ---------------------------------------------------------------------

TEST(TierEquiv, RegionHeadsCoverEntryAndBranchTargets)
{
    ProgramBuilder b;
    b.markEntry();
    b.movri(Gpr::Rax, 1);
    ProgramBuilder::Label target = b.newLabel();
    b.cmpi(Gpr::Rax, 0);
    b.jcc(Cond::Ne, target);
    b.nop();
    b.bind(target);
    b.nop();
    b.halt();
    const Program prog = b.build();

    const std::vector<Addr> heads = regionHeads(prog);
    EXPECT_NE(std::find(heads.begin(), heads.end(), prog.entry()),
              heads.end());
    // The Jcc target must be enumerated as a head.
    bool found_target = false;
    for (const MacroOp &op : prog.code())
        if (op.opcode == MacroOpcode::Jcc)
            found_target =
                std::find(heads.begin(), heads.end(), op.target) !=
                heads.end();
    EXPECT_TRUE(found_target);
    EXPECT_TRUE(std::is_sorted(heads.begin(), heads.end()));
}

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
        // A conditional branch: stays mid-block (exits dynamically when
        // taken) and contributes its target as another region head.
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
    std::size_t total_blocks = 0;
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
        // executing each compiled flow measures — exact equality, per
        // macro, for dynamic and delivered uops — and the front-end
        // slots must be the flow's deliveredSlots.
        const SuperblockCache blocks;
        const SuperblockBuilder builder(prog, fc, translator, blocks);
        ArchState state;
        state.loadProgram(prog);
        FunctionalExecutor exec(state);
        for (const Addr head : regionHeads(prog)) {
            const std::unique_ptr<Superblock> block = builder.build(head);
            if (!block)
                continue;
            ++total_blocks;
            for (const SbMacro *macro : block->macros) {
                const SbMacro &m = *macro;
                ++total_macros;
                FlowResult result;
                exec.executeInto(*m.op, *m.flow, result);
                std::uint64_t delivered = 0;
                for (const DynUop &dyn : result.dynUops)
                    delivered += dyn.uop->eliminated ? 0 : 1;
                ASSERT_EQ(m.dynCount, result.dynUops.size())
                    << "program " << pi << " macro @ 0x" << std::hex
                    << m.op->pc;
                ASSERT_EQ(m.delivered, delivered)
                    << "program " << pi << " macro @ 0x" << std::hex
                    << m.op->pc;
                ASSERT_EQ(m.frontEndSlots, deliveredSlots(*m.flow))
                    << "program " << pi << " macro @ 0x" << std::hex
                    << m.op->pc;
            }
        }
    }

    // The corpus must genuinely exercise the tier; a generator drift
    // that stops producing compilable regions would otherwise pass
    // vacuously.
    EXPECT_GT(total_blocks, 50u);
    EXPECT_GT(total_macros, 500u);
}

} // namespace
} // namespace csd
