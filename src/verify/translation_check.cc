#include "verify/translation_check.hh"

#include <string>
#include <vector>

#include "cpu/backend.hh"
#include "csd/csd.hh"
#include "csd/devect.hh"
#include "csd/msr.hh"
#include "decode/flow_cache.hh"
#include "power/energy.hh"
#include "uop/translate.hh"

namespace csd
{

MicroTableView
MicroTableView::real()
{
    static const EnergyModel energy;
    MicroTableView view;
    view.fuClassOf = [](MicroOpcode op) {
        return detail::fuClassTable[static_cast<std::size_t>(op)];
    };
    view.latencyOf = [](MicroOpcode op) {
        return detail::fuLatencyTable[static_cast<std::size_t>(op)];
    };
    view.portCountOf = [](FuClass fu) {
        return static_cast<unsigned>(BackEnd::portsFor(fu).count);
    };
    view.energyOf = [](FuClass fu) {
        Uop uop;
        // energyOf is per-FuClass; synthesize any uop of that class.
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(MicroOpcode::NumOpcodes); ++i) {
            if (detail::fuClassTable[i] == fu) {
                uop.op = static_cast<MicroOpcode>(i);
                return energy.uopEnergy(uop);
            }
        }
        return 0.0;
    };
    return view;
}

const char *
fuClassName(FuClass fu)
{
    switch (fu) {
      case FuClass::IntAlu:   return "IntAlu";
      case FuClass::IntMul:   return "IntMul";
      case FuClass::Branch:   return "Branch";
      case FuClass::MemLoad:  return "MemLoad";
      case FuClass::MemStore: return "MemStore";
      case FuClass::VecAlu:   return "VecAlu";
      case FuClass::VecMul:   return "VecMul";
      case FuClass::VecFpDiv: return "VecFpDiv";
      case FuClass::FpScalar: return "FpScalar";
      case FuClass::None:     return "None";
    }
    return "?";
}

namespace
{

constexpr Addr samplePc = 0x401000;

/** Synthesize a representative, well-formed MacroOp for @p opc. */
MacroOp
sampleOp(MacroOpcode opc)
{
    MacroOp op;
    op.opcode = opc;
    op.pc = samplePc;

    MemOperand mem;
    mem.base = Gpr::Rbx;
    mem.index = Gpr::Rcx;
    mem.scale = 4;
    mem.disp = 0x40;

    switch (opc) {
      case MacroOpcode::MovRR:
        op.dst = Gpr::Rax;
        op.src1 = Gpr::Rdx;
        break;
      case MacroOpcode::MovRI:
        op.dst = Gpr::Rax;
        op.imm = 0x1234;
        break;
      case MacroOpcode::Load:
        op.dst = Gpr::Rax;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::Store:
        op.src1 = Gpr::Rdx;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::StoreImm:
        op.imm = 7;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::Lea:
        op.dst = Gpr::Rax;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::Push:
        op.src1 = Gpr::Rdx;
        break;
      case MacroOpcode::Pop:
        op.dst = Gpr::Rax;
        break;

      case MacroOpcode::AddM: case MacroOpcode::SubM:
      case MacroOpcode::AndM: case MacroOpcode::OrM:
      case MacroOpcode::XorM: case MacroOpcode::CmpM:
      case MacroOpcode::ImulM:
        op.dst = Gpr::Rax;
        op.mem = mem;
        op.hasMem = true;
        break;

      case MacroOpcode::AddI: case MacroOpcode::AdcI:
      case MacroOpcode::SubI: case MacroOpcode::SbbI:
      case MacroOpcode::AndI: case MacroOpcode::OrI:
      case MacroOpcode::XorI: case MacroOpcode::ShlI:
      case MacroOpcode::ShrI: case MacroOpcode::SarI:
      case MacroOpcode::RolI: case MacroOpcode::RorI:
      case MacroOpcode::CmpI: case MacroOpcode::TestI:
        op.dst = Gpr::Rax;
        op.imm = 5;
        break;

      case MacroOpcode::Not: case MacroOpcode::Neg:
        op.dst = Gpr::Rax;
        break;

      case MacroOpcode::Jmp:
        op.target = samplePc + 0x40;
        break;
      case MacroOpcode::Jcc:
        op.cond = Cond::Eq;
        op.target = samplePc + 0x40;
        break;
      case MacroOpcode::JmpInd:
        op.src1 = Gpr::Rax;
        break;
      case MacroOpcode::Call:
        op.target = samplePc + 0x100;
        break;
      case MacroOpcode::Ret:
        break;

      case MacroOpcode::MovdqaLoad:
        op.xdst = Xmm::Xmm1;
        mem.size = MemSize::B16;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::MovdqaStore:
        op.xsrc = Xmm::Xmm2;
        mem.size = MemSize::B16;
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::MovdqaRR:
        op.xdst = Xmm::Xmm1;
        op.xsrc = Xmm::Xmm2;
        break;
      case MacroOpcode::PslldI: case MacroOpcode::PsrldI:
        op.xdst = Xmm::Xmm1;
        op.imm = 5;
        break;

      case MacroOpcode::Clflush:
        op.mem = mem;
        op.hasMem = true;
        break;
      case MacroOpcode::RepStosI:
        op.imm = 0x600000;
        op.imm2 = 3;
        break;

      case MacroOpcode::Rdtsc:
        op.dst = Gpr::Rax;
        break;

      default:
        if (isVector(opc)) {
            op.xdst = Xmm::Xmm1;
            op.xsrc = Xmm::Xmm2;
        } else if (opc != MacroOpcode::Nop && opc != MacroOpcode::Halt &&
                   opc != MacroOpcode::Cpuid) {
            // Scalar RR ALU forms (Add..Test).
            op.dst = Gpr::Rax;
            op.src1 = Gpr::Rdx;
        }
        break;
    }

    op.length = encodedLength(op);
    return op;
}

bool
uopEq(const Uop &a, const Uop &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.src3 == b.src3 && a.imm == b.imm &&
           a.disp == b.disp && a.scale == b.scale &&
           a.memSize == b.memSize && a.cond == b.cond &&
           a.target == b.target && a.lane == b.lane &&
           a.width == b.width && a.writesFlags == b.writesFlags &&
           a.readsFlags == b.readsFlags && a.decoy == b.decoy &&
           a.instrFetch == b.instrFetch &&
           a.fusedLeader == b.fusedLeader &&
           a.fusedFollower == b.fusedFollower &&
           a.immData == b.immData && a.eliminated == b.eliminated &&
           a.macroPc == b.macroPc && a.uopIdx == b.uopIdx;
}

bool
flowEq(const UopFlow &a, const UopFlow &b)
{
    if (a.uops.size() != b.uops.size() || a.fromMsrom != b.fromMsrom ||
        a.cacheable != b.cacheable ||
        a.loop.has_value() != b.loop.has_value())
        return false;
    if (a.loop &&
        (a.loop->bodyStart != b.loop->bodyStart ||
         a.loop->bodyEnd != b.loop->bodyEnd ||
         a.loop->tripCount != b.loop->tripCount))
        return false;
    for (std::size_t i = 0; i < a.uops.size(); ++i)
        if (!uopEq(a.uops[i], b.uops[i]))
            return false;
    return true;
}

bool
regIdOk(const RegId &reg)
{
    switch (reg.cls) {
      case RegClass::Int:   return reg.idx < numIntUopRegs;
      case RegClass::Vec:   return reg.idx < numVecUopRegs;
      case RegClass::Flags: return reg.idx == 0;
      case RegClass::None:  return true;
    }
    return false;
}

/** Structural invariants the decode stages rely on. */
void
checkFlowStructure(MacroOpcode opc, const MacroOp &op,
                   const UopFlow &flow, VerifyReport &report)
{
    const std::string name = mnemonic(opc);
    auto bad = [&](const std::string &why) {
        report.add("trans.malformed-flow", Severity::Error, invalidAddr,
                   name, name + ": " + why);
    };

    if (flow.uops.empty()) {
        bad("translation produced an empty flow");
        return;
    }
    for (std::size_t i = 0; i < flow.uops.size(); ++i) {
        const Uop &uop = flow.uops[i];
        if (uop.macroPc != op.pc)
            bad("uop " + std::to_string(i) +
                " carries the wrong parent PC");
        if (uop.uopIdx != i)
            bad("uop " + std::to_string(i) + " has uopIdx " +
                std::to_string(uop.uopIdx));
        if (uop.fusedLeader &&
            (i + 1 >= flow.uops.size() || !flow.uops[i + 1].fusedFollower))
            bad("fused leader at uop " + std::to_string(i) +
                " has no adjacent follower");
        if (uop.fusedFollower &&
            (i == 0 || !flow.uops[i - 1].fusedLeader))
            bad("fused follower at uop " + std::to_string(i) +
                " has no adjacent leader");
        for (const RegId &reg :
             {uop.dst, uop.src1, uop.src2, uop.src3}) {
            if (!regIdOk(reg)) {
                bad("uop " + std::to_string(i) +
                    " addresses an out-of-range register (class " +
                    std::to_string(static_cast<int>(reg.cls)) + " idx " +
                    std::to_string(reg.idx) + ")");
            }
        }
    }
    if (flow.loop) {
        if (flow.loop->bodyStart >= flow.loop->bodyEnd ||
            flow.loop->bodyEnd > flow.uops.size())
            bad("micro-loop body bounds are outside the flow");
        if (flow.loop->tripCount == 0)
            bad("micro-loop has a zero trip count");
    }
}

} // namespace

MacroOp
sampleMacroOp(MacroOpcode opc)
{
    return sampleOp(opc);
}

void
checkTranslations(VerifyReport &report)
{
    // One CSD instance in its quiescent native context: no MSR writes,
    // no DIFT tracker, devectorization and MCU mode off.
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);

    FlowCache cache;
    cache.reset(1);
    const EnergyModel energy;

    const unsigned n = static_cast<unsigned>(MacroOpcode::NumOpcodes);
    for (unsigned i = 0; i < n; ++i) {
        const MacroOpcode opc = static_cast<MacroOpcode>(i);
        const MacroOp op = sampleOp(opc);
        const std::string name = mnemonic(opc);

        const UopFlow legacy = translateNative(op);
        const UopFlow again = translateNative(op);
        if (!flowEq(legacy, again)) {
            report.add("trans.nondeterministic", Severity::Error,
                       invalidAddr, name,
                       name + ": two native translations of the same "
                              "macro-op differ");
        }

        checkFlowStructure(opc, op, legacy, report);

        if (legacy.uops.size() != nativeUopCount(opc)) {
            report.add("trans.count-mismatch", Severity::Error,
                       invalidAddr, name,
                       name + ": translation has " +
                           std::to_string(legacy.uops.size()) +
                           " uops but nativeUopCount says " +
                           std::to_string(nativeUopCount(opc)));
        }
        if (legacy.fromMsrom != nativelyMicrosequenced(opc)) {
            report.add("trans.msrom-mismatch", Severity::Error,
                       invalidAddr, name,
                       name + ": fromMsrom=" +
                           (legacy.fromMsrom ? "true" : "false") +
                           " disagrees with nativelyMicrosequenced");
        }

        // Flow-cache round trip: what the memo hands back must be the
        // flow that went in.
        cache.clear();
        cache.insert(0, /*epoch=*/7, ctxNative, op, legacy, energy);
        const FlowCache::Entry *entry =
            cache.lookup(0, /*epoch=*/7, ctxNative);
        if (!entry || !flowEq(entry->flow, legacy)) {
            report.add("trans.flow-cache-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": flow-cache round trip altered the "
                              "translation");
        }
        if (cache.lookup(0, /*epoch=*/8, ctxNative) != nullptr) {
            report.add("trans.flow-cache-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": flow cache served an entry from a "
                              "stale epoch");
        }
        if (cache.lookup(0, /*epoch=*/7, ctxDevect) != nullptr) {
            report.add("trans.flow-cache-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": flow cache served an entry translated "
                              "under a different decode context");
        }

        // The CSD in its native context must reproduce the legacy
        // decoders' translation bit-for-bit.
        const UopFlow viaCsd = csd.translate(op);
        if (csd.contextId() != ctxNative) {
            report.add("trans.csd-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": CSD left the native context with no "
                              "trigger armed");
        } else if (!flowEq(viaCsd, legacy)) {
            report.add("trans.csd-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": CSD native-context translation differs "
                              "from the legacy decode path");
        }

        // Devectorization: every VPU-arith opcode must have a scalar
        // rewrite, and the rewrite must not touch the VPU.
        if (isVectorArith(opc)) {
            const auto scalar = devectorize(op);
            if (!scalar) {
                report.add("trans.devect-missing", Severity::Error,
                           invalidAddr, name,
                           name + ": VPU-arith opcode has no scalar "
                                  "rewrite (would block power gating)");
            } else if (scalar->usesVpu()) {
                report.add("trans.devect-vpu-residue", Severity::Error,
                           invalidAddr, name,
                           name + ": devectorized flow still contains "
                                  "VPU uops");
            }
        }
    }
}

void
auditMicroTables(VerifyReport &report, const MicroTableView &view)
{
    const std::size_t n =
        static_cast<std::size_t>(MicroOpcode::NumOpcodes);
    bool energyMissing[static_cast<std::size_t>(FuClass::None) + 1] = {};

    for (std::size_t i = 0; i < n; ++i) {
        const MicroOpcode op = static_cast<MicroOpcode>(i);
        const FuClass fu = view.fuClassOf(op);
        Uop u;
        u.op = op;
        const std::string name = toString(u);

        if (fu != FuClass::None && view.portCountOf(fu) == 0) {
            report.add("tables.empty-port-mask", Severity::Error,
                       invalidAddr, fuClassName(fu),
                       "micro-opcode " + std::to_string(i) + " (" +
                           name + ") binds to class " + fuClassName(fu) +
                           " which has no issue ports");
        }
        if (fu != FuClass::MemLoad && fu != FuClass::MemStore &&
            view.latencyOf(op) == 0) {
            report.add("tables.zero-latency", Severity::Error,
                       invalidAddr, fuClassName(fu),
                       "micro-opcode " + std::to_string(i) + " (" +
                           name + ") has zero latency outside the "
                                  "memory classes");
        }
        if (fu != FuClass::None && view.energyOf(fu) <= 0.0)
            energyMissing[static_cast<std::size_t>(fu)] = true;
    }

    for (std::size_t fu = 0;
         fu <= static_cast<std::size_t>(FuClass::None); ++fu) {
        if (energyMissing[fu]) {
            report.add("tables.missing-energy", Severity::Error,
                       invalidAddr, fuClassName(static_cast<FuClass>(fu)),
                       std::string("functional-unit class ") +
                           fuClassName(static_cast<FuClass>(fu)) +
                           " has no per-uop energy entry");
        }
    }
}

} // namespace csd
