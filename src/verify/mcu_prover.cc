#include "verify/mcu_prover.hh"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>

#include "common/stats.hh"
#include "csd/csd.hh"
#include "csd/msr.hh"
#include "uop/translate.hh"

namespace csd
{

McuBlobView
McuBlobView::real()
{
    McuBlobView view;
    view.checksumOf = [](const McuBlob &blob) { return mcuChecksum(blob); };
    view.revisionOf = [](const McuHeader &header) { return header.revision; };
    view.installedOf = [](const UopVec &uops) { return uops; };
    view.tables = MicroTableView::real();
    view.decoyCoverageOf = [](const AddrRange &range) { return range; };
    return view;
}

namespace
{

const char *
placementName(McuPlacement placement)
{
    switch (placement) {
      case McuPlacement::Prepend: return "prepend";
      case McuPlacement::Append:  return "append";
      case McuPlacement::Replace: return "replace";
    }
    return "unknown";
}

/** Semantic uop equality: every field execution depends on. */
bool
uopSemEq(const Uop &a, const Uop &b)
{
    return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
           a.src2 == b.src2 && a.src3 == b.src3 && a.imm == b.imm &&
           a.disp == b.disp && a.scale == b.scale &&
           a.memSize == b.memSize && a.cond == b.cond &&
           a.lane == b.lane && a.width == b.width &&
           a.writesFlags == b.writesFlags &&
           a.readsFlags == b.readsFlags && a.immData == b.immData;
}

/** @p sub must appear within @p full in order (the optimizer only
 *  ever deletes uops, never reorders or rewrites them). */
bool
isOrderedSubsequence(const UopVec &sub, const UopVec &full)
{
    std::size_t j = 0;
    for (const Uop &uop : sub) {
        while (j < full.size() && !uopSemEq(full[j], uop))
            ++j;
        if (j == full.size())
            return false;
        ++j;
    }
    return true;
}

/** Outcome of the independent remap re-derivation. */
struct ExpectedTranslation
{
    UopVec uops;
    bool controlTransfer = false;
    bool microsequenced = false;
    bool tempOverflow = false;

    bool ok() const
    {
        return !controlTransfer && !microsequenced && !tempOverflow;
    }
};

/**
 * Re-derive what translateEntry must produce *before* its optimizer
 * runs: the concatenated native flows with, under containment, every
 * architectural GPR renamed onto t0..t5 and every architectural XMM
 * onto vt0..vt3 in first-use order (operands visited dst, src1, src2,
 * src3 per uop) and flag writes stripped. Injectivity and totality
 * hold by construction: each architectural register gets a distinct
 * temp, and every operand is visited.
 */
ExpectedTranslation
deriveExpected(const McuEntry &entry, bool allow_arch_writes)
{
    ExpectedTranslation out;
    for (const MacroOp &op : entry.nativeCode) {
        if (isBranch(op.opcode)) {
            out.controlTransfer = true;
            return out;
        }
        if (nativelyMicrosequenced(op.opcode)) {
            out.microsequenced = true;
            return out;
        }
        const UopFlow flow = translateNative(op);
        out.uops.insert(out.uops.end(), flow.uops.begin(),
                        flow.uops.end());
    }
    if (allow_arch_writes)
        return out;

    constexpr unsigned availInt = numIntTemps - 2;  // t6/t7 = decoys
    constexpr unsigned availVec = numVecTemps;
    std::array<int, numGprs> intMap;
    std::array<int, numXmms> vecMap;
    intMap.fill(-1);
    vecMap.fill(-1);
    unsigned nextInt = 0;
    unsigned nextVec = 0;

    auto remap = [&](RegId &reg) -> bool {
        if (!reg.valid())
            return true;
        if (reg.cls == RegClass::Int && reg.idx < numGprs) {
            if (intMap[reg.idx] < 0) {
                if (nextInt >= availInt)
                    return false;
                intMap[reg.idx] = static_cast<int>(nextInt++);
            }
            reg = intTemp(static_cast<unsigned>(intMap[reg.idx]));
        } else if (reg.cls == RegClass::Vec && reg.idx < numXmms) {
            if (vecMap[reg.idx] < 0) {
                if (nextVec >= availVec)
                    return false;
                vecMap[reg.idx] = static_cast<int>(nextVec++);
            }
            reg = vecTemp(static_cast<unsigned>(vecMap[reg.idx]));
        }
        return true;
    };

    for (Uop &uop : out.uops) {
        if (!remap(uop.dst) || !remap(uop.src1) || !remap(uop.src2) ||
            !remap(uop.src3)) {
            out.tempOverflow = true;
            return out;
        }
        uop.writesFlags = false;
    }
    return out;
}

/** Block-aligned lines the entry's absolute sweep loads touch. */
std::set<Addr>
sweptLinesOf(const UopVec &uops)
{
    std::set<Addr> lines;
    for (const Uop &uop : uops) {
        if (uop.isLoad() && !uop.src1.valid() && !uop.src2.valid())
            lines.insert(blockAlign(static_cast<Addr>(uop.disp)));
    }
    return lines;
}

/** Static energy of a uop sequence through the table view (nJ). */
double
flowEnergyNj(const UopVec &uops, const MicroTableView &tables)
{
    double total = 0;
    for (const Uop &uop : uops) {
        const FuClass fu = tables.fuClassOf(uop.op);
        if (fu != FuClass::None)
            total += tables.energyOf(fu);
    }
    return total;
}

/** True iff any register operand of @p uop names architectural
 *  (non-temporary) Int/Vec state. */
bool
touchesArchRegs(const Uop &uop)
{
    for (const RegId &reg : {uop.dst, uop.src1, uop.src2, uop.src3}) {
        if (!reg.valid())
            continue;
        if (reg.cls == RegClass::Int && !reg.isIntTemp())
            return true;
        if (reg.cls == RegClass::Vec && !reg.isVecTemp())
            return true;
    }
    return false;
}

/**
 * Replay the translation_check structural and micro-table invariants
 * against the flow @p target decodes to under the patched engine.
 */
void
auditPatchedFlow(MacroOpcode target, const UopFlow &flow,
                 const MicroTableView &tables, VerifyReport &report)
{
    const std::string name = mnemonic(target);
    auto bad = [&](const std::string &why) {
        report.add("mcu.table-invariant", Severity::Error, invalidAddr,
                   name, name + ": patched flow " + why);
    };

    if (flow.uops.empty()) {
        bad("is empty");
        return;
    }
    for (std::size_t i = 0; i < flow.uops.size(); ++i) {
        const Uop &uop = flow.uops[i];
        for (const RegId &reg :
             {uop.dst, uop.src1, uop.src2, uop.src3}) {
            const bool in_range =
                (reg.cls == RegClass::Int && reg.idx < numIntUopRegs) ||
                (reg.cls == RegClass::Vec && reg.idx < numVecUopRegs) ||
                (reg.cls == RegClass::Flags && reg.idx == 0) ||
                reg.cls == RegClass::None;
            if (!in_range) {
                bad("uop " + std::to_string(i) +
                    " addresses an out-of-range register");
            }
        }
        const FuClass fu = tables.fuClassOf(uop.op);
        if (fu == FuClass::None)
            continue;
        if (tables.portCountOf(fu) == 0) {
            bad("uop " + std::to_string(i) + " (" + toString(uop) +
                ") binds to class " + fuClassName(fu) +
                " which has no issue ports");
        }
        if (fu != FuClass::MemLoad && fu != FuClass::MemStore &&
            tables.latencyOf(uop.op) == 0) {
            bad("uop " + std::to_string(i) + " (" + toString(uop) +
                ") has zero latency outside the memory classes");
        }
        if (tables.energyOf(fu) <= 0.0) {
            bad("uop " + std::to_string(i) + " (" + toString(uop) +
                ") has no per-uop energy entry for class " +
                fuClassName(fu));
        }
    }
}

unsigned
verdictRank(LeakVerdict verdict)
{
    switch (verdict) {
      case LeakVerdict::Open:     return 0;
      case LeakVerdict::Narrowed: return 1;
      case LeakVerdict::Closed:   return 2;
    }
    return 0;
}

} // namespace

McuAudit
proveMcuAdmission(const McuBlob &blob, VerifyReport &report,
                  const McuProveOptions &opts)
{
    McuAudit audit;
    const McuBlobView &view = opts.view;
    const bool allow = blob.header.allowArchWrites;

    // Pass 1: integrity / header soundness.
    if (blob.header.signature != mcuSignature) {
        report.add("mcu.bad-signature", Severity::Error, invalidAddr,
                   "header", "MCU signature is not the CSD magic");
    }
    if (!blob.header.autoTranslate) {
        report.add("mcu.not-auto-translate", Severity::Error, invalidAddr,
                   "header",
                   "update is not marked for CSD auto-translation");
    }
    if (view.checksumOf(blob) != blob.header.checksum) {
        report.add("mcu.checksum-mismatch", Severity::Error, invalidAddr,
                   "header",
                   "checksum does not match the data part (tampered or "
                   "unsealed blob)");
    }
    if (view.revisionOf(blob.header) <= opts.installedRevision) {
        report.add("mcu.revision-downgrade", Severity::Error, invalidAddr,
                   "header",
                   "revision " +
                       std::to_string(view.revisionOf(blob.header)) +
                       " does not exceed the installed revision " +
                       std::to_string(opts.installedRevision));
    }
    if (blob.entries.empty()) {
        report.add("mcu.empty-update", Severity::Error, invalidAddr,
                   "header", "update contains no translation entries");
        return audit;
    }

    // Pass 2: per-entry architectural containment.
    McuEngine scratch;
    std::set<MacroOpcode> seen;
    std::map<MacroOpcode, std::set<Addr>> sweepByTarget;
    bool any_arch_write = false;

    for (const McuEntry &entry : blob.entries) {
        const std::string name = mnemonic(entry.targetOpcode);
        McuEntryAudit ea;
        ea.target = entry.targetOpcode;
        ea.placement = entry.placement;
        ea.nativeOps = entry.nativeCode.size();

        if (!seen.insert(entry.targetOpcode).second) {
            report.add("mcu.duplicate-target", Severity::Error,
                       invalidAddr, name,
                       name + ": two entries target the same opcode; "
                              "install order would be ambiguous");
        }

        const ExpectedTranslation expected =
            deriveExpected(entry, allow);
        if (expected.controlTransfer) {
            report.add("mcu.control-transfer", Severity::Error,
                       invalidAddr, name,
                       name + ": custom translation contains a control "
                              "transfer");
        }
        if (expected.microsequenced) {
            report.add("mcu.microsequenced", Severity::Error, invalidAddr,
                       name,
                       name + ": custom translation contains a natively "
                              "microsequenced instruction");
        }
        if (expected.tempOverflow) {
            report.add("mcu.temp-overflow", Severity::Error, invalidAddr,
                       name,
                       name + ": update names more architectural "
                              "registers than the decoder has "
                              "temporaries");
        }

        CustomTranslation xlat;
        std::string why;
        const bool engine_ok =
            scratch.translateEntry(entry, allow, xlat, &why);
        if (engine_ok != expected.ok()) {
            // A store rejection under containment is the one rule the
            // engine checks after remapping; mirror it here.
            const bool store_reject =
                !allow && expected.ok() &&
                std::any_of(expected.uops.begin(), expected.uops.end(),
                            [](const Uop &u) { return u.isStore(); });
            report.add(store_reject ? "mcu.arch-write-escape"
                                    : "mcu.remap-divergence",
                       Severity::Error, invalidAddr, name,
                       store_reject
                           ? name + ": memory write without "
                                    "allowArchWrites"
                           : name + ": engine admission disagrees with "
                                    "the re-derived remap (" +
                                 (engine_ok ? "engine admits a rejected "
                                              "entry"
                                            : "engine rejected: " + why) +
                                 ")");
            audit.entries.push_back(ea);
            continue;
        }
        if (!engine_ok) {
            audit.entries.push_back(ea);
            continue;
        }

        const UopVec actual = view.installedOf(xlat.uops);
        ea.installedUops = actual.size();
        ea.energyDeltaNj = flowEnergyNj(actual, view.tables);
        if (entry.placement == McuPlacement::Replace) {
            const UopFlow native =
                translateNative(sampleMacroOp(entry.targetOpcode));
            ea.energyDeltaNj -= flowEnergyNj(native.uops, view.tables);
        }
        const std::set<Addr> swept = sweptLinesOf(actual);
        ea.sweptLines = swept.size();
        if (!swept.empty())
            sweepByTarget[entry.targetOpcode].insert(swept.begin(),
                                                     swept.end());

        bool entry_arch_write = false;
        for (std::size_t i = 0; i < actual.size(); ++i) {
            const Uop &uop = actual[i];
            if (writesArchState(uop)) {
                entry_arch_write = true;
                if (!allow) {
                    report.add(
                        "mcu.arch-write-escape", Severity::Error,
                        invalidAddr, name,
                        name + ": uop " + std::to_string(i) + " (" +
                            toString(uop) +
                            ") writes architectural state without "
                            "allowArchWrites");
                }
            }
            if (!allow && touchesArchRegs(uop)) {
                report.add("mcu.remap-divergence", Severity::Error,
                           invalidAddr, name,
                           name + ": uop " + std::to_string(i) + " (" +
                               toString(uop) +
                               ") still names an architectural "
                               "register; the remap is not total");
            }
        }
        any_arch_write |= entry_arch_write;

        if (!isOrderedSubsequence(actual, expected.uops)) {
            report.add("mcu.remap-divergence", Severity::Error,
                       invalidAddr, name,
                       name + ": installed uops are not an ordered "
                              "subsequence of the re-derived remapped "
                              "translation");
        }
        audit.entries.push_back(ea);
    }

    if (allow && !any_arch_write) {
        report.add("mcu.unused-arch-writes", Severity::Warning,
                   invalidAddr, "header",
                   "header declares allowArchWrites but no installed "
                   "uop writes architectural state; drop the privilege");
    }

    // Pass 3: translation-consistency re-audit of the patched flows.
    // A scratch decoder installs the blob for real (no admission hook,
    // so no recursion) and each target is decoded under MCU mode.
    MsrFile msrs;
    ContextSensitiveDecoder csd(msrs);
    std::string apply_error;
    if (csd.mcu().applyUpdate(blob, &apply_error)) {
        csd.setMcuMode(true);
        for (const McuEntry &entry : blob.entries) {
            const UopFlow patched =
                csd.translate(sampleMacroOp(entry.targetOpcode));
            auditPatchedFlow(entry.targetOpcode, patched, view.tables,
                             report);
        }
    } else if (!report.hasErrors()) {
        // Never admit a blob the engine itself would turn away.
        report.add("mcu.translate-reject", Severity::Error, invalidAddr,
                   "header",
                   "engine rejects the update: " + apply_error);
    }

    // Pass 4: channel non-regression for the victim context.
    if (opts.channel != nullptr && opts.channel->program != nullptr) {
        const McuChannelContext &ctx = *opts.channel;
        const LeakProof baseline = proveLeaks(
            *ctx.program, ctx.options, ctx.defense, ctx.prove);

        DefenseConfig patched_defense = ctx.defense;
        patched_defense.decoyIRange =
            view.decoyCoverageOf(ctx.defense.decoyIRange);
        patched_defense.decoyDRange =
            view.decoyCoverageOf(ctx.defense.decoyDRange);

        const auto &code = ctx.program->code();
        auto extra = [&](const SiteProof &site) -> std::set<Addr> {
            if (site.footprint.channel != Channel::L1DAccess)
                return {};
            if (site.site.instrIndex >= code.size())
                return {};
            const auto it = sweepByTarget.find(
                code[site.site.instrIndex].opcode);
            return it == sweepByTarget.end() ? std::set<Addr>()
                                             : it->second;
        };
        const LeakProof patched = rejudgeLeaks(
            baseline, ctx.options, patched_defense, ctx.prove, extra);

        audit.channelChecked = true;
        audit.baselineClosed = baseline.closedSites;
        audit.baselineNarrowed = baseline.narrowedSites;
        audit.baselineOpen = baseline.openSites;
        audit.patchedClosed = patched.closedSites;
        audit.patchedNarrowed = patched.narrowedSites;
        audit.patchedOpen = patched.openSites;
        audit.baselineResidualBits = baseline.residualTotalBits;
        audit.patchedResidualBits = patched.residualTotalBits;

        for (std::size_t i = 0; i < baseline.sites.size(); ++i) {
            const SiteProof &before = baseline.sites[i];
            const SiteProof &after = patched.sites[i];
            if (verdictRank(after.verdict) <
                verdictRank(before.verdict)) {
                report.add(
                    "mcu.channel-regression", Severity::Error,
                    before.site.pc, before.site.symbol,
                    ctx.name + ": site verdict regresses from " +
                        verdictName(before.verdict) + " to " +
                        verdictName(after.verdict) +
                        " under the patched translation");
            }
        }
    }

    return audit;
}

std::string
McuAudit::json(const std::string &blob_name) const
{
    std::ostringstream os;
    os << "{\"blob\": \"" << jsonEscape(blob_name)
       << "\", \"entries\": [";
    bool first = true;
    for (const McuEntryAudit &ea : entries) {
        os << (first ? "" : ", ") << "{\"target\": \""
           << jsonEscape(mnemonic(ea.target)) << "\", \"placement\": \""
           << placementName(ea.placement)
           << "\", \"native_ops\": " << ea.nativeOps
           << ", \"installed_uops\": " << ea.installedUops
           << ", \"energy_delta_nj\": " << ea.energyDeltaNj
           << ", \"swept_lines\": " << ea.sweptLines << "}";
        first = false;
    }
    os << "], \"channel_checked\": "
       << (channelChecked ? "true" : "false");
    if (channelChecked) {
        os << ", \"baseline\": {\"closed\": " << baselineClosed
           << ", \"narrowed\": " << baselineNarrowed
           << ", \"open\": " << baselineOpen
           << ", \"residual_bits\": " << baselineResidualBits
           << "}, \"patched\": {\"closed\": " << patchedClosed
           << ", \"narrowed\": " << patchedNarrowed
           << ", \"open\": " << patchedOpen
           << ", \"residual_bits\": " << patchedResidualBits << "}";
    }
    os << "}";
    return os.str();
}

McuEngine::AdmissionProver
mcuAdmissionProver(McuProveOptions opts)
{
    return [opts](const McuBlob &blob, const McuEngine &engine,
                  std::string *error) {
        McuProveOptions local = opts;
        local.installedRevision = engine.installedRevision();
        VerifyReport report;
        proveMcuAdmission(blob, report, local);
        if (!report.hasErrors())
            return true;
        if (error) {
            for (const Finding &finding : report.findings()) {
                if (finding.severity == Severity::Error) {
                    *error = finding.toString();
                    break;
                }
            }
        }
        return false;
    };
}

} // namespace csd
