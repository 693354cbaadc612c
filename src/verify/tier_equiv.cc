#include "verify/tier_equiv.hh"

#include <algorithm>
#include <string>

#include "csd/devect.hh"
#include "decode/fusion.hh"

namespace csd
{

SuperblockView
SuperblockView::real()
{
    SuperblockView view;
    view.handlerOf = [](const SbOp &op) { return op.handler; };
    view.energyOf = [](const SbOp &op) { return op.energy; };
    view.vpuOf = [](const SbOp &op) { return op.vpu(); };
    view.countedOf = [](const SbOp &op) { return op.counted(); };
    view.timingOf = [](const SbOp &op) { return op.timing; };
    view.guardsOf = [](const SbMacro &macro) { return macro.guards; };
    view.exitMetaOf = [](SbExit exit) { return sbExitMeta(exit); };
    return view;
}

namespace
{

/**
 * The reference handler for one micro-opcode, re-derived here from
 * FunctionalExecutor::execUop's dispatch switch (cpu/executor.hh) —
 * deliberately NOT calling decode/superblock.cc's sbHandlerFor, which
 * is the mapping under test. The two tables are maintained against the
 * same executor switch; any divergence is exactly the drift this check
 * exists to catch. Note the groups do not follow FuClass: VInsert is
 * an IntAlu-class uop that still dispatches to execVector.
 */
SbHandler
referenceHandler(MicroOpcode op)
{
    switch (op) {
      case MicroOpcode::Load:        return SbHandler::Load;
      case MicroOpcode::Store:       return SbHandler::Store;
      case MicroOpcode::StoreImm:    return SbHandler::StoreImm;
      case MicroOpcode::LoadVec:     return SbHandler::LoadVec;
      case MicroOpcode::StoreVec:    return SbHandler::StoreVec;
      case MicroOpcode::Br:          return SbHandler::Br;
      case MicroOpcode::BrInd:       return SbHandler::BrInd;
      case MicroOpcode::CacheFlush:  return SbHandler::CacheFlush;
      case MicroOpcode::ReadCycles:  return SbHandler::ReadCycles;
      case MicroOpcode::Nop:         return SbHandler::Nop;
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
        return SbHandler::Vector;
      case MicroOpcode::VExtract:    return SbHandler::VExtract;
      case MicroOpcode::FAddS: case MicroOpcode::FSubS:
      case MicroOpcode::FMulS: case MicroOpcode::FDivS:
      case MicroOpcode::FSqrtS:
      case MicroOpcode::FAddSd: case MicroOpcode::FSubSd:
      case MicroOpcode::FMulSd:
        return SbHandler::ScalarFp;
      case MicroOpcode::Halt:        return SbHandler::Halt;
      default:
        return SbHandler::ScalarAlu;
    }
}

const char *
sbHandlerName(SbHandler handler)
{
    switch (handler) {
      case SbHandler::Load:        return "Load";
      case SbHandler::Store:       return "Store";
      case SbHandler::StoreImm:    return "StoreImm";
      case SbHandler::LoadVec:     return "LoadVec";
      case SbHandler::StoreVec:    return "StoreVec";
      case SbHandler::Br:          return "Br";
      case SbHandler::BrInd:       return "BrInd";
      case SbHandler::CacheFlush:  return "CacheFlush";
      case SbHandler::ReadCycles:  return "ReadCycles";
      case SbHandler::Nop:         return "Nop";
      case SbHandler::Vector:      return "Vector";
      case SbHandler::VExtract:    return "VExtract";
      case SbHandler::ScalarFp:    return "ScalarFp";
      case SbHandler::ScalarAlu:   return "ScalarAlu";
      case SbHandler::Halt:        return "Halt";
      case SbHandler::NumHandlers: break;
    }
    return "?";
}

/** Handlers that take a memory timing probe in the retire routine. */
bool
memoryHandler(SbHandler handler)
{
    switch (handler) {
      case SbHandler::Load:
      case SbHandler::Store:
      case SbHandler::StoreImm:
      case SbHandler::LoadVec:
      case SbHandler::StoreVec:
      case SbHandler::CacheFlush:
        return true;
      default:
        return false;
    }
}

/** Does retiring this uop touch memory or control flow? These are the
 *  effects that must sit behind an epoch guard: a stale translation
 *  replayed past a trigger change would probe the wrong sets or leave
 *  the region on the wrong path. */
bool
hasGuardedEffect(const Uop &uop)
{
    switch (uop.op) {
      case MicroOpcode::Load:
      case MicroOpcode::LoadVec:
      case MicroOpcode::Store:
      case MicroOpcode::StoreImm:
      case MicroOpcode::StoreVec:
      case MicroOpcode::CacheFlush:
      case MicroOpcode::Br:
      case MicroOpcode::BrInd:
        return true;
      default:
        return false;
    }
}

/** Unconditional control transfer = region terminator (must be last). */
bool
uncondTransfer(MacroOpcode op)
{
    return op == MacroOpcode::Jmp || op == MacroOpcode::JmpInd ||
           op == MacroOpcode::Call || op == MacroOpcode::Ret;
}

/** Flat ready-table index, re-derived from RegId's documented layout
 *  [int | vec | flags] rather than through RegId::flatIndex. */
std::uint8_t
referenceFlat(const RegId &reg, std::uint8_t none)
{
    switch (reg.cls) {
      case RegClass::Int:
        return reg.idx;
      case RegClass::Vec:
        return static_cast<std::uint8_t>(numIntUopRegs + reg.idx);
      case RegClass::Flags:
        return static_cast<std::uint8_t>(numIntUopRegs + numVecUopRegs);
      case RegClass::None:
        break;
    }
    return none;
}

/**
 * Compare @p got against the timing record @p uop implies, using the
 * fault-injectable tables for FU class, latency, and port count.
 * Returns the name of the first drifted field, or null when sound.
 */
const char *
timingDrift(const UopTimingRec &got, const Uop &uop,
            const MicroTableView &tables)
{
    constexpr std::uint8_t noSrc = UopTimingRec::noSrc;
    constexpr std::uint8_t noDst = UopTimingRec::noDst;
    const std::uint8_t flags = referenceFlat(flagsReg(), noSrc);
    if (got.src[0] != referenceFlat(uop.src1, noSrc) ||
        got.src[1] != referenceFlat(uop.src2, noSrc) ||
        got.src[2] != referenceFlat(uop.src3, noSrc) ||
        got.src[3] != (uop.readsFlags ? flags : noSrc))
        return "source register indices";
    if (got.dst != referenceFlat(uop.dst, noDst) ||
        got.flagsDst != (uop.writesFlags ? flags : noDst))
        return "destination register indices";
    const FuClass fu = tables.fuClassOf(uop.op);
    if (got.fu != fu)
        return "FU class";
    if (got.latency != tables.latencyOf(uop.op))
        return "latency";
    const IssuePortSet &ports = BackEnd::portsFor(fu);
    if (got.ports.count != tables.portCountOf(fu) ||
        !std::equal(got.ports.ports, got.ports.ports + got.ports.count,
                    ports.ports))
        return "port set";

    UopMemKind mem = UopMemKind::None;
    switch (uop.op) {
      case MicroOpcode::Load:
      case MicroOpcode::LoadVec:
        mem = uop.instrFetch ? UopMemKind::LoadInstr : UopMemKind::Load;
        break;
      case MicroOpcode::Store:
      case MicroOpcode::StoreImm:
      case MicroOpcode::StoreVec:
        mem = UopMemKind::Store;
        break;
      case MicroOpcode::CacheFlush:
        mem = UopMemKind::Flush;
        break;
      default:
        break;
    }
    if (got.mem != mem)
        return "memory kind";

    const auto temp = [](const RegId &reg) {
        return (reg.cls == RegClass::Int && reg.idx >= numGprs) ||
               (reg.cls == RegClass::Vec && reg.idx >= numXmms);
    };
    const struct
    {
        std::uint16_t bit;
        bool expect;
        const char *name;
    } bits[] = {
        {UopTimingRec::eliminated, uop.eliminated, "eliminated bit"},
        {UopTimingRec::readCycles, uop.op == MicroOpcode::ReadCycles,
         "serializing (rdtsc) bit"},
        {UopTimingRec::pipelined, fu != FuClass::VecFpDiv,
         "pipelined bit"},
        {UopTimingRec::vpu,
         fu == FuClass::VecAlu || fu == FuClass::VecMul ||
             fu == FuClass::VecFpDiv,
         "VPU bit"},
        {UopTimingRec::branch,
         uop.op == MicroOpcode::Br || uop.op == MicroOpcode::BrInd,
         "branch bit"},
        {UopTimingRec::takesSlot, !uop.eliminated && !uop.fusedFollower,
         "slot-taking bit"},
        {UopTimingRec::decoy, uop.decoy, "decoy bit"},
        {UopTimingRec::devectExpansion,
         temp(uop.dst) || temp(uop.src1) || temp(uop.src2) ||
             temp(uop.src3),
         "devectorization-expansion bit"},
    };
    for (const auto &b : bits)
        if (got.has(b.bit) != b.expect)
            return b.name;
    return nullptr;
}

void
addFinding(VerifyReport &report, const Program &prog, const char *check,
           Addr pc, const std::string &message)
{
    report.add(check, Severity::Error, pc, innermostSymbol(prog, pc),
               message);
}

/**
 * Apply @p fn to the flow's dynamic expansion in the exact order
 * FunctionalExecutor::executeInto (and the builder) produce it:
 * prologue, body x tripCount, epilogue.
 */
template <class Fn>
void
expandFlow(const UopFlow &flow, Fn &&fn)
{
    if (flow.loop) {
        const MicroLoop &loop = *flow.loop;
        for (std::size_t i = 0; i < loop.bodyStart; ++i)
            fn(flow.uops[i]);
        for (std::uint32_t trip = 0; trip < loop.tripCount; ++trip)
            for (std::size_t i = loop.bodyStart; i < loop.bodyEnd; ++i)
                fn(flow.uops[i]);
        for (std::size_t i = loop.bodyEnd; i < flow.uops.size(); ++i)
            fn(flow.uops[i]);
    } else {
        for (const Uop &uop : flow.uops)
            fn(uop);
    }
}

} // namespace

void
checkSuperblock(const Superblock &block, const Program &prog,
                const FlowCache &fc, const Translator &translator,
                const EnergyModel &energy, VerifyReport &report,
                const SuperblockView &view, const TierEquivOptions &options)
{
    const std::string tag = "block " + hexPc(block.entryPc);

    if (block.macros.empty() || block.uopCount() == 0) {
        addFinding(report, prog, "tier.partial-flush", block.entryPc,
                   tag + ": empty macro or uop stream — nothing for an "
                         "exit to flush");
        return;
    }

    // --- (c) exit-protocol safety --------------------------------------
    //
    // The block's CFG is a linear chain of macro nodes: macro i's
    // fall-through edge goes to macro i+1, and every macro additionally
    // has exit edges out of the block (Budget/EpochBump/Unstable before
    // its guards retire it, Branch after it if it can take a branch,
    // End after the last). Proving the exit protocol over this CFG
    // means proving (1) the declared contract for every exit edge
    // flushes a clean whole-macro prefix, (2) each macro retires its
    // flow-cache entry's whole stored span, so "whole-macro prefix" is
    // well defined at every node boundary, (3) chained fall-through
    // edges follow interpreter order, and (4) every path from entry to
    // a memory/branch effect crosses the effect macro's epoch guard.

    for (unsigned e = 0; e < numSbExits; ++e) {
        const auto exit = static_cast<SbExit>(e);
        const SbExitMeta meta = view.exitMetaOf(exit);
        if (!meta.flushesPrefix) {
            addFinding(report, prog, "tier.partial-flush", block.entryPc,
                       tag + ": exit reason '" +
                           std::string(sbExitName(exit)) +
                           "' is not declared to flush a clean "
                           "whole-macro prefix in interpreter order");
        }
        if ((exit == SbExit::EpochBump || exit == SbExit::Unstable) &&
            !meta.resumesInterpreter) {
            addFinding(report, prog, "tier.partial-flush", block.entryPc,
                       tag + ": exit reason '" +
                           std::string(sbExitName(exit)) +
                           "' must hand control back to the interpreter "
                           "(chaining would re-enter under a stale "
                           "translation state)");
        }
        // Re-entry: the only legal points are macro k+1 after the
        // interpreter retired the macro k an Unstable exit vetoed, and
        // macro k itself after a Budget exit (nothing retired). An
        // epoch bump stales every translation in the block; re-entering
        // at the vetoed macro would replay the translation the
        // stability probe refused; skipping a macro nobody retired
        // loses it.
        if (meta.reentersBlock) {
            unsigned legal = ~0u;
            if (exit == SbExit::Unstable)
                legal = 1;
            else if (exit == SbExit::Budget)
                legal = 0;
            if (meta.interpreterMacros != legal ||
                !meta.resumesInterpreter) {
                addFinding(report, prog, "tier.partial-flush",
                           block.entryPc,
                           tag + ": exit reason '" +
                               std::string(sbExitName(exit)) +
                               "' re-enters the block at macro k+" +
                               std::to_string(meta.interpreterMacros) +
                               ", which is not a legal re-entry point");
            }
        }
    }
    // Every macro a re-entering exit can resume at must re-run the
    // epoch guard: the interpreter ran in between and may have moved
    // the translation state.
    bool reentry_any = false;
    bool reentry_head = false;
    for (unsigned e = 0; e < numSbExits; ++e) {
        const SbExitMeta meta = view.exitMetaOf(static_cast<SbExit>(e));
        if (meta.reentersBlock) {
            reentry_any = true;
            reentry_head = reentry_head || meta.interpreterMacros == 0;
        }
    }

    if (block.macros.front()->op->pc != block.entryPc) {
        addFinding(report, prog, "tier.partial-flush", block.entryPc,
                   tag + ": first macro is at " +
                       hexPc(block.macros.front()->op->pc) +
                       ", not the block entry");
    }

    for (std::size_t mi = 0; mi < block.macros.size(); ++mi) {
        const SbMacro &m = *block.macros[mi];
        const Addr mpc = m.op->pc;

        if (mi + 1 < block.macros.size()) {
            const Addr next_pc = block.macros[mi + 1]->op->pc;
            if (next_pc != m.fallThrough) {
                addFinding(report, prog, "tier.partial-flush", next_pc,
                           tag + ": macro " + std::to_string(mi + 1) +
                               " starts at " + hexPc(next_pc) +
                               " but the predecessor falls through to " +
                               hexPc(m.fallThrough) +
                               " — interpreter order diverges");
            }
            if (uncondTransfer(m.op->opcode)) {
                addFinding(report, prog, "tier.partial-flush", mpc,
                           tag + ": unconditional transfer mid-block; "
                                 "the stream would run past it into "
                                 "unreachable code");
            }
        }

        if (m.fallThrough != m.op->nextPc()) {
            addFinding(report, prog, "tier.partial-flush", mpc,
                       tag + ": recorded fall-through " +
                           hexPc(m.fallThrough) + " != nextPc " +
                           hexPc(m.op->nextPc()) +
                           " — the resume PC after an exit at this "
                           "macro would diverge from the interpreter");
        }

        // --- (b) accounting equivalence: replay the flow the
        // interpreter would fetch from the flow cache for this macro
        // whenever the context guard lets it retire here, i.e. in the
        // context it was compiled under.
        const MacroOp *const code_base = prog.code().data();
        const auto slot = static_cast<std::size_t>(m.op - code_base);
        const FlowCache::Entry *entry =
            slot < fc.slots() ? fc.peek(slot, block.epoch, m.ctx)
                              : nullptr;
        if (!entry) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           "'s flow is not cached under the block's "
                           "epoch/context — the interpreter could not "
                           "reproduce this macro");
            continue;
        }
        // Only a devectorizable op's stable context moves without an
        // epoch bump; any other macro must be compiled in the context
        // the interpreter would look it up in.
        if (!devectorizable(m.op->opcode) &&
            m.ctx != translator.stableContext(*m.op)) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " is compiled in context " +
                           std::to_string(m.ctx) +
                           " but translates in context " +
                           std::to_string(translator.stableContext(*m.op)) +
                           ", and no context guard can tell");
        }
        if (m.flow != &entry->flow || m.ctx != entry->macro.ctx) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " records stale flow/context provenance for "
                           "its flow-cache entry");
        }
        const UopFlow &flow = entry->flow;

        std::uint64_t dyn_exp = 0;
        std::uint64_t deliv_exp = 0;
        expandFlow(flow, [&](const Uop &uop) {
            ++dyn_exp;
            if (!uop.eliminated)
                ++deliv_exp;
        });

        if (m.dynCount != flow.expandedCount() || dyn_exp != m.dynCount) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": dynamic uop count " +
                           std::to_string(m.dynCount) +
                           " != flow expansion " +
                           std::to_string(flow.expandedCount()));
        }
        if (m.delivered != deliveredUops(flow) || deliv_exp != m.delivered) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": delivered-slot delta " +
                           std::to_string(m.delivered) +
                           " != interpreter's deliveredUops " +
                           std::to_string(deliveredUops(flow)));
        }
        if (m.fetchFirst != blockAlign(mpc) ||
            m.fetchLast != blockAlign(mpc + m.op->length - 1)) {
            addFinding(report, prog, "tier.accounting-skew", mpc,
                       tag + ": I-fetch block range [" +
                           hexPc(m.fetchFirst) + ", " +
                           hexPc(m.fetchLast) +
                           "] does not cover the macro's encoded bytes");
        }

        // (c2) The macro retires its entry's whole stored span: a
        // shorter or longer range would leave part of a macro behind,
        // or retire part of the next, at an exit after it.
        if (m.dynCount != entry->macro.dynCount) {
            addFinding(report, prog, "tier.partial-flush", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " retires " + std::to_string(m.dynCount) +
                           " uop(s) of its entry's stored span of " +
                           std::to_string(entry->macro.dynCount) +
                           " — a mid-block exit here cannot flush a "
                           "clean whole-macro prefix");
            continue;  // per-uop indexing below needs a sane range
        }

        // --- (d) the span is the flow cache's one stored form: the
        // entry's own ops, over its flow's uops in the interpreter's
        // expansion order (prologue, body x tripCount, epilogue). A
        // copy, even an equal one, would outlive a re-translation.
        if (m.ops != entry->ops.data()) {
            addFinding(report, prog, "tier.unroll-mismatch", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " retires a copy of its flow-cache entry's "
                           "stored ops, not the stored span");
        }
        if (m.dynCount != dyn_exp) {
            addFinding(report, prog, "tier.unroll-mismatch", mpc,
                       tag + ": span carries " +
                           std::to_string(m.dynCount) +
                           " uop(s) where the flow expands to " +
                           std::to_string(dyn_exp));
        } else {
            std::uint32_t k = 0;
            bool ordered = true;
            expandFlow(flow, [&](const Uop &uop) {
                ordered = ordered && m.ops[k++].uop == &uop;
            });
            if (!ordered) {
                addFinding(report, prog, "tier.unroll-mismatch", mpc,
                           tag + ": unrolled span is not the "
                                 "interpreter's expansion order "
                                 "(prologue, body x trips, epilogue) "
                                 "over the cached flow's uops");
            }
        }

        // --- (a) handler soundness over the macro's span.
        for (std::uint32_t k = 0; k < m.dynCount; ++k) {
            const SbOp &sbop = m.ops[k];
            const Uop &uop = *sbop.uop;
            const std::string where = tag + ": macro " + std::to_string(mi) +
                                      " uop " + std::to_string(k) + " (" +
                                      toString(uop) + ")";

            if (uop.op == MicroOpcode::Halt) {
                addFinding(report, prog, "tier.partial-flush", mpc,
                           where + ": Halt admitted to a stream — the "
                                   "interpreter owns program "
                                   "termination");
                continue;
            }

            const SbHandler expect = referenceHandler(uop.op);
            const SbHandler got = view.handlerOf(sbop);
            if (got != expect) {
                addFinding(report, prog, "tier.handler-mismatch", mpc,
                           where + ": resolves to handler " +
                               sbHandlerName(got) +
                               " where execUop dispatches to " +
                               sbHandlerName(expect));
            }
            if (view.vpuOf(sbop) != onVpu(uop)) {
                addFinding(report, prog, "tier.handler-mismatch", mpc,
                           where + ": VPU residency bit disagrees with "
                                   "the fuClass table — the energy "
                                   "would accrue to the wrong "
                                   "accumulator");
            }
            if (view.countedOf(sbop) != !uop.eliminated) {
                addFinding(report, prog, "tier.accounting-skew", mpc,
                           where + ": counted bit disagrees with the "
                                   "decode-time eliminated mark");
            }

            const FuClass fu = options.tables.fuClassOf(uop.op);
            const bool mem_class =
                fu == FuClass::MemLoad || fu == FuClass::MemStore;
            if (mem_class != memoryHandler(got)) {
                addFinding(report, prog, "tier.handler-mismatch", mpc,
                           where + ": fuClass/latency table binding "
                                   "disagrees with the handler's timing "
                                   "probe (memory latency would be "
                                   "dropped or invented)");
            }
            if (!uop.eliminated && fu != FuClass::None &&
                options.tables.portCountOf(fu) == 0) {
                addFinding(report, prog, "tier.handler-mismatch", mpc,
                           where + ": no issue port bound for its "
                                   "fuClass");
            }

            // Exact (bitwise) double compare on purpose: the span
            // stores a copy of the model's scalar, and retireRun adds
            // it per-uop in expansion order precisely because double
            // addition is order-sensitive. Any representational drift
            // here breaks the tier's bit-identity guarantee.
            if (view.energyOf(sbop) != energy.uopEnergy(uop)) {
                addFinding(report, prog, "tier.energy-drift", mpc,
                           where + ": precomputed energy differs from "
                                   "EnergyModel::uopEnergy for its "
                                   "fuClass");
            }

            // --- (d) the detailed consumer's per-uop input.
            if (const char *field =
                    timingDrift(view.timingOf(sbop), uop, options.tables)) {
                addFinding(report, prog, "tier.timing-drift", mpc,
                           where + ": timing record's " + field +
                               " drifted from its uop — the detailed "
                               "timing model would diverge from the "
                               "interpreter");
            }
        }

        // --- (c4) epoch-guard coverage. Every path from entry to this
        // macro is the linear prefix before it, so the effect is
        // guarded iff this macro's own boundary performs the tick +
        // epoch compare (the tick fires any due watchdog; comparing
        // without ticking would miss the very bump being guarded
        // against). Stability must be probed at every macro: a flow
        // can go unstable (decoy refill, taint) with no epoch bump.
        const std::uint8_t guards = view.guardsOf(m);
        if (!(guards & sbGuardStability)) {
            addFinding(report, prog, "tier.unguarded-epoch-window", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " retires without a translation-stability "
                           "probe");
        }
        // A devectorization toggle moves a vector op's stable context
        // without an epoch bump: a devectorizable macro retired without
        // the context compare would replay the other context's flow.
        if (devectorizable(m.op->opcode) && !(guards & sbGuardContext)) {
            addFinding(report, prog, "tier.unguarded-epoch-window", mpc,
                       tag + ": devectorizable macro " +
                           std::to_string(mi) +
                           " retires without a stable-context compare "
                           "(a devectorization toggle bumps no epoch)");
        }
        bool effect = false;
        for (std::uint32_t k = 0; k < m.dynCount && !effect; ++k)
            effect = hasGuardedEffect(*m.ops[k].uop);
        constexpr std::uint8_t epochGuard = sbGuardTick | sbGuardEpoch;
        const bool reentry_point =
            reentry_any && (mi > 0 || reentry_head);
        if (reentry_point && (guards & epochGuard) != epochGuard) {
            addFinding(report, prog, "tier.unguarded-epoch-window", mpc,
                       tag + ": macro " + std::to_string(mi) +
                           " is a re-entry point after an interpreter "
                           "step but lacks the epoch guard (tick + "
                           "epoch compare) at its boundary");
        } else if (effect && (guards & epochGuard) != epochGuard) {
            addFinding(report, prog, "tier.unguarded-epoch-window", mpc,
                       tag + ": path from block entry reaches a "
                             "memory/branch effect in macro " +
                           std::to_string(mi) +
                           " without crossing an epoch guard "
                           "(tick + epoch compare) at its boundary");
        }
    }
}

std::uint64_t
populateFlowCache(const Program &prog, Translator &translator,
                  FlowCache &fc, const FrontEndParams &frontend,
                  const EnergyModel &energy)
{
    fc.reset(prog.size());
    const std::vector<MacroOp> &code = prog.code();
    std::uint64_t epoch = translator.translationEpoch();
    for (std::size_t slot = 0; slot < code.size(); ++slot) {
        const MacroOp &op = code[slot];
        if (!translator.translationStable(op))
            continue;
        // Mirror Simulation::translatedFlow's miss path: translate,
        // run the decode-time passes, and cache under the epoch read
        // before the translation and the context it reported.
        epoch = translator.translationEpoch();
        UopFlow flow = translator.translate(op);
        applyFusionConfig(flow, frontend);
        applySpTracking(flow, frontend);
        if (FlowCache::admits(flow))
            fc.insert(slot, epoch, translator.contextId(), op,
                      std::move(flow), energy);
    }
    return epoch;
}

std::vector<Addr>
regionHeads(const Program &prog)
{
    std::vector<Addr> heads;
    heads.push_back(prog.entry());
    for (const MacroOp &op : prog.code()) {
        switch (op.opcode) {
          case MacroOpcode::Jmp:
          case MacroOpcode::Jcc:
          case MacroOpcode::Call:
            if (op.target != invalidAddr)
                heads.push_back(op.target);
            break;
          default:
            break;
        }
        if (uncondTransfer(op.opcode))
            heads.push_back(op.nextPc());
    }
    std::sort(heads.begin(), heads.end());
    heads.erase(std::unique(heads.begin(), heads.end()), heads.end());
    heads.erase(std::remove_if(heads.begin(), heads.end(),
                               [&](Addr pc) { return !prog.at(pc); }),
                heads.end());
    return heads;
}

TierAudit
auditProgramTiers(const Program &prog, Translator &translator,
                  VerifyReport &report, const SuperblockView &view,
                  const TierEquivOptions &options)
{
    TierAudit audit;
    FlowCache fc;
    const EnergyModel energy;
    populateFlowCache(prog, translator, fc, options.frontend, energy);

    // No live blocks to chain to: every head compiles its longest
    // region, of which the block the tier would build there (ending
    // where a live block starts) is a prefix.
    const SuperblockCache no_blocks;
    const SuperblockBuilder builder(prog, fc, translator, no_blocks,
                                    options.limits);
    std::vector<Addr> heads = regionHeads(prog);
    if (heads.size() > options.maxHeads)
        heads.resize(options.maxHeads);

    for (const Addr head : heads) {
        ++audit.heads;
        const std::unique_ptr<Superblock> block = builder.build(head);
        if (!block)
            continue;
        ++audit.blocks;
        audit.macros += block->macros.size();
        audit.uops += block->uopCount();
        checkSuperblock(*block, prog, fc, translator, energy, report,
                        view, options);
    }
    return audit;
}

} // namespace csd
