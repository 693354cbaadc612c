#include "verify/leak_prover.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <sstream>

#include "common/stats.hh"

namespace csd
{

namespace
{

/**
 * Interprocedural forward cone: blocks reachable from @p start
 * without passing through @p cut (the branch block). Call blocks
 * descend into the callee *and* resume at the post-call block; Ret
 * blocks stop (following the CFG's ret edges here would leak blocks
 * of unrelated callers into the cone, e.g. `square`'s tail into the
 * multiply-side cone through the shared `reduce`).
 */
std::vector<bool>
coneBlocks(const Cfg &cfg, std::size_t start, std::size_t cut)
{
    const auto &code = cfg.program().code();
    std::vector<bool> in(cfg.blocks().size(), false);
    if (start == Cfg::npos || start == cut)
        return in;
    std::deque<std::size_t> work{start};
    in[start] = true;
    while (!work.empty()) {
        const std::size_t b = work.front();
        work.pop_front();
        const BasicBlock &blk = cfg.blocks()[b];
        const MacroOp &exit = code[blk.last];

        auto push = [&](std::size_t next) {
            if (next == Cfg::npos || next == cut || in[next])
                return;
            in[next] = true;
            work.push_back(next);
        };

        if (exit.opcode == MacroOpcode::Ret ||
            exit.opcode == MacroOpcode::Halt ||
            exit.opcode == MacroOpcode::JmpInd)
            continue;
        if (isCall(exit.opcode)) {
            const MacroOp *callee = cfg.program().at(exit.target);
            if (callee)
                push(cfg.blockOf(static_cast<std::size_t>(
                    callee - code.data())));
            if (blk.last + 1 < code.size())
                push(cfg.blockOf(blk.last + 1));
            continue;
        }
        for (std::size_t succ : blk.succs)
            push(succ);
    }
    return in;
}

/** Append the cache lines spanned by @p blk's instructions. */
void
addBlockLines(const Cfg &cfg, const BasicBlock &blk, unsigned block_bytes,
              std::vector<Addr> &lines)
{
    const auto &code = cfg.program().code();
    for (std::size_t i = blk.first; i <= blk.last; ++i) {
        const Addr first = blockAlign(code[i].pc);
        const Addr last = blockAlign(code[i].nextPc() - 1);
        for (Addr line = first; line <= last; line += block_bytes)
            lines.push_back(line);
    }
}

/**
 * I-cache lines fetched on exactly one side of the branch at
 * @p site, minus lines shared with code fetched on both sides (a
 * shared line is warm either way and carries no signal).
 */
std::vector<Addr>
branchExclusiveLines(const Cfg &cfg, const LeakSite &site,
                     unsigned block_bytes)
{
    const auto &code = cfg.program().code();
    const MacroOp &op = code[site.instrIndex];
    if (op.opcode != MacroOpcode::Jcc)
        return {};

    const std::size_t branch_blk = cfg.blockOf(site.instrIndex);
    std::size_t target_blk = Cfg::npos;
    std::size_t fall_blk = Cfg::npos;
    if (const MacroOp *hit = cfg.program().at(op.target))
        target_blk = cfg.blockOf(static_cast<std::size_t>(
            hit - code.data()));
    if (op.cond != Cond::Always && site.instrIndex + 1 < code.size())
        fall_blk = cfg.blockOf(site.instrIndex + 1);
    if (target_blk == Cfg::npos || fall_blk == Cfg::npos)
        return {};

    const std::vector<bool> taken =
        coneBlocks(cfg, target_blk, branch_blk);
    const std::vector<bool> fall = coneBlocks(cfg, fall_blk, branch_blk);

    std::vector<Addr> exclusive;
    std::vector<Addr> shared;
    for (std::size_t b = 0; b < cfg.blocks().size(); ++b) {
        const bool in_taken = taken[b];
        const bool in_fall = fall[b];
        if (in_taken != in_fall) {
            addBlockLines(cfg, cfg.blocks()[b], block_bytes, exclusive);
        } else if (cfg.blocks()[b].reachable || in_taken) {
            // Fetched on both sides (or unconditionally): its lines
            // carry no signal even if an exclusive block shares them.
            addBlockLines(cfg, cfg.blocks()[b], block_bytes, shared);
        }
    }
    std::sort(shared.begin(), shared.end());
    shared.erase(std::unique(shared.begin(), shared.end()), shared.end());
    std::sort(exclusive.begin(), exclusive.end());
    exclusive.erase(std::unique(exclusive.begin(), exclusive.end()),
                    exclusive.end());

    std::vector<Addr> signal;
    std::set_difference(exclusive.begin(), exclusive.end(),
                        shared.begin(), shared.end(),
                        std::back_inserter(signal));
    return signal;
}

/** Declared region containing @p addr (data chunk, extra, or taint). */
AddrRange
regionContaining(const Program &prog, const VerifyOptions &options,
                 Addr addr)
{
    for (const DataChunk &chunk : prog.data())
        if (chunk.range().contains(addr))
            return chunk.range();
    for (const AddrRange &range : options.extraRegions)
        if (range.contains(addr))
            return range;
    for (const AddrRange &range : options.taintSources)
        if (range.contains(addr))
            return range;
    return AddrRange();
}

/** Block-aligned line set of a (possibly invalid) range. */
std::set<Addr>
rangeLines(const AddrRange &range, unsigned block_bytes)
{
    std::set<Addr> lines;
    if (range.valid())
        for (Addr line = blockAlign(range.start); line < range.end;
             line += block_bytes)
            lines.insert(line);
    return lines;
}

/** True iff every analysis taint source is visible to the defense's
 *  DIFT configuration (taint-gated decode fires for it). */
bool
taintGateCovers(const VerifyOptions &options, const DefenseConfig &defense)
{
    for (const AddrRange &src : options.taintSources) {
        bool covered = false;
        for (const AddrRange &gate : defense.taintSources)
            covered |= gate.overlaps(src);
        if (!covered)
            return false;
    }
    return true;
}

/**
 * Judge one site under the configured defense. @p extra_covered names
 * additional always-hot lines beyond the decoy ranges — e.g. lines an
 * admitted MCU custom translation sweeps on every execution of the
 * site's flow — that count as covered even when stealth-mode decoys
 * are disabled or taint-blind (the sweep fires unconditionally).
 */
void
judgeDefense(SiteProof &proof, const VerifyOptions &options,
             const DefenseConfig &defense, const ProveOptions &prove,
             const std::set<Addr> &extra_covered)
{
    if (proof.bitsPerObservation == 0.0) {
        proof.verdict = LeakVerdict::Closed;
        proof.residualBitsPerObservation = 0.0;
        if (proof.note.empty())
            proof.note = "no distinguishable footprint";
        return;
    }
    if (!defense.enabled && extra_covered.empty()) {
        proof.verdict = LeakVerdict::Open;
        proof.residualBitsPerObservation = proof.bitsPerObservation;
        proof.residualLines = proof.footprint.lines.size();
        proof.note = "defense disabled";
        return;
    }
    const bool decoys_active =
        defense.enabled && taintGateCovers(options, defense);
    if (!decoys_active && defense.enabled && extra_covered.empty()) {
        proof.verdict = LeakVerdict::Open;
        proof.residualBitsPerObservation = proof.bitsPerObservation;
        proof.residualLines = proof.footprint.lines.size();
        proof.note = "taint-gated decode blind to a secret source";
        return;
    }

    const bool instr_side =
        proof.footprint.channel == Channel::L1IFetch;
    std::set<Addr> covered = extra_covered;
    if (decoys_active) {
        const AddrRange &decoy =
            instr_side ? defense.decoyIRange : defense.decoyDRange;
        const std::set<Addr> decoy_lines =
            rangeLines(decoy, prove.geometry.blockBytes);
        covered.insert(decoy_lines.begin(), decoy_lines.end());
    }

    if (proof.footprint.lines.empty()) {
        // Unresolved base: the footprint could be anywhere, so no
        // finite decoy range provably covers it.
        proof.verdict = LeakVerdict::Open;
        proof.residualBitsPerObservation = proof.bitsPerObservation;
        proof.note = "unresolved footprint; decoy coverage unprovable";
        return;
    }

    std::size_t residual = 0;
    for (Addr line : proof.footprint.lines)
        residual += covered.count(line) == 0;
    proof.residualLines = residual;

    if (residual == 0) {
        proof.verdict = LeakVerdict::Closed;
        proof.residualBitsPerObservation = 0.0;
        proof.note = "decoy covers every candidate line";
        return;
    }

    if (proof.site.kind == LeakKind::TaintedIndex &&
        residual < proof.footprint.lines.size()) {
        // Some candidates collapse into the decoy's always-hot set;
        // the uncovered ones stay distinguishable (+1 for "one of the
        // covered lines" as a single merged outcome).
        proof.verdict = LeakVerdict::Narrowed;
        proof.residualBitsPerObservation =
            std::log2(static_cast<double>(residual) + 1.0);
        proof.note = "decoy misses " + std::to_string(residual) +
                     " candidate line(s)";
        return;
    }

    // A branch with any uncovered exclusive line still yields the
    // full taken/not-taken outcome; likewise a fully uncovered index.
    proof.verdict = LeakVerdict::Open;
    proof.residualBitsPerObservation = proof.bitsPerObservation;
    proof.note = "decoy misses " + std::to_string(residual) +
                 " candidate line(s)";
}

} // namespace

const char *
verdictName(LeakVerdict verdict)
{
    switch (verdict) {
      case LeakVerdict::Open:     return "open";
      case LeakVerdict::Narrowed: return "narrowed";
      case LeakVerdict::Closed:   return "closed";
    }
    return "unknown";
}

LeakProof
proveLeaks(const Program &prog, const VerifyOptions &options,
           const DefenseConfig &defense, const ProveOptions &prove)
{
    LeakProof proof;

    // Re-run the dataflow fixpoint with the leak-site collector; the
    // findings themselves go to a scratch report (the caller already
    // has them from verifyProgram()).
    VerifyReport scratch;
    Cfg cfg = Cfg::build(prog, scratch);
    if (prog.code().empty())
        return proof;
    runPathWalk(cfg, options, scratch);
    std::vector<LeakSite> sites;
    runDataflow(cfg, options, scratch, &sites);

    std::sort(sites.begin(), sites.end(),
              [](const LeakSite &a, const LeakSite &b) {
                  return a.pc < b.pc;
              });

    const ChannelGeometry &geometry = prove.geometry;
    for (LeakSite &site : sites) {
        SiteProof sp;
        sp.observations = prove.keyLoopIterations;

        switch (site.kind) {
          case LeakKind::TaintedBranch: {
            sp.footprint = footprintOfLines(
                Channel::L1IFetch,
                branchExclusiveLines(cfg, site, geometry.blockBytes),
                geometry);
            // One binary outcome per observation when the two sides
            // have distinguishable fetch footprints.
            sp.bitsPerObservation =
                sp.footprint.lines.empty() ? 0.0 : 1.0;
            sp.setBitsPerObservation = sp.bitsPerObservation;
            break;
          }
          case LeakKind::TaintedIndirect: {
            // Target set unknown: bound by the whole code section.
            sp.footprint = footprintOfRange(Channel::L1IFetch,
                                            prog.codeRange(), geometry);
            sp.bitsPerObservation = sp.footprint.lineBits();
            sp.setBitsPerObservation = sp.footprint.setBits();
            break;
          }
          case LeakKind::TaintedIndex: {
            AddrRange extent;
            if (site.baseKnown) {
                const AddrRange region =
                    regionContaining(prog, options, site.baseAddr);
                if (region.valid())
                    extent = AddrRange(site.baseAddr, region.end);
            }
            sp.footprint =
                footprintOfRange(Channel::L1DAccess, extent, geometry);
            if (extent.valid()) {
                sp.bitsPerObservation = sp.footprint.lineBits();
                sp.setBitsPerObservation = sp.footprint.setBits();
            } else {
                // Unresolved table base: bound by the structure
                // itself (the attacker observes at most a set index).
                sp.bitsPerObservation = std::log2(static_cast<double>(
                    geometry.numSets(Channel::L1DAccess)));
                sp.setBitsPerObservation = sp.bitsPerObservation;
                sp.note = "unresolved base address";
            }
            break;
          }
        }

        sp.site = std::move(site);
        sp.totalBits = sp.bitsPerObservation *
                       static_cast<double>(sp.observations);
        judgeDefense(sp, options, defense, prove, {});

        proof.totalBits += sp.totalBits;
        proof.residualTotalBits += sp.residualBitsPerObservation *
                                   static_cast<double>(sp.observations);
        switch (sp.verdict) {
          case LeakVerdict::Open:     ++proof.openSites; break;
          case LeakVerdict::Narrowed: ++proof.narrowedSites; break;
          case LeakVerdict::Closed:   ++proof.closedSites; break;
        }
        proof.sites.push_back(std::move(sp));
    }
    return proof;
}

LeakProof
rejudgeLeaks(const LeakProof &baseline, const VerifyOptions &options,
             const DefenseConfig &defense, const ProveOptions &prove,
             const std::function<std::set<Addr>(const SiteProof &)>
                 &extra_covered_for)
{
    LeakProof out;
    for (const SiteProof &site : baseline.sites) {
        SiteProof sp = site;
        sp.verdict = LeakVerdict::Open;
        sp.residualBitsPerObservation = 0.0;
        sp.residualLines = 0;
        sp.note.clear();
        judgeDefense(sp, options, defense, prove,
                     extra_covered_for ? extra_covered_for(site)
                                       : std::set<Addr>());
        out.totalBits += sp.totalBits;
        out.residualTotalBits += sp.residualBitsPerObservation *
                                 static_cast<double>(sp.observations);
        switch (sp.verdict) {
          case LeakVerdict::Open:     ++out.openSites; break;
          case LeakVerdict::Narrowed: ++out.narrowedSites; break;
          case LeakVerdict::Closed:   ++out.closedSites; break;
        }
        out.sites.push_back(std::move(sp));
    }
    return out;
}

std::string
LeakProof::text() const
{
    std::ostringstream os;
    for (const SiteProof &sp : sites) {
        os << "0x" << std::hex << sp.site.pc << std::dec;
        if (!sp.site.symbol.empty())
            os << " <" << sp.site.symbol << ">";
        os << ": " << leakKindName(sp.site.kind) << " via "
           << channelName(sp.footprint.channel) << ", "
           << sp.footprint.lines.size() << " line(s) in "
           << sp.footprint.sets.size() << " set(s), "
           << sp.bitsPerObservation << " bit(s)/obs x "
           << sp.observations << " = " << sp.totalBits
           << " bit(s); defended: " << verdictName(sp.verdict);
        if (sp.verdict == LeakVerdict::Narrowed)
            os << "(" << sp.residualBitsPerObservation << ")";
        if (!sp.note.empty())
            os << " [" << sp.note << "]";
        os << "\n";
    }
    os << sites.size() << " site(s), " << totalBits
       << " bit(s)/run undefended, " << residualTotalBits
       << " bit(s)/run defended (" << closedSites << " closed, "
       << narrowedSites << " narrowed, " << openSites << " open)\n";
    return os.str();
}

std::string
LeakProof::json(const std::string &target) const
{
    std::ostringstream os;
    os << "{\"target\": \"" << jsonEscape(target) << "\", \"sites\": [";
    bool first_site = true;
    for (const SiteProof &sp : sites) {
        os << (first_site ? "" : ", ") << "{\"pc\": " << sp.site.pc
           << ", \"symbol\": \"" << jsonEscape(sp.site.symbol)
           << "\", \"kind\": \"" << leakKindName(sp.site.kind)
           << "\", \"channel\": \"" << channelName(sp.footprint.channel)
           << "\", \"lines\": " << sp.footprint.lines.size()
           << ", \"sets\": [";
        for (std::size_t i = 0; i < sp.footprint.sets.size(); ++i)
            os << (i ? ", " : "") << sp.footprint.sets[i];
        os << "], \"uop_sets\": [";
        for (std::size_t i = 0; i < sp.footprint.uopSets.size(); ++i)
            os << (i ? ", " : "") << sp.footprint.uopSets[i];
        os << "], \"bits_per_observation\": " << sp.bitsPerObservation
           << ", \"set_bits_per_observation\": "
           << sp.setBitsPerObservation
           << ", \"observations\": " << sp.observations
           << ", \"total_bits\": " << sp.totalBits
           << ", \"verdict\": \"" << verdictName(sp.verdict)
           << "\", \"residual_bits_per_observation\": "
           << sp.residualBitsPerObservation
           << ", \"residual_lines\": " << sp.residualLines
           << ", \"note\": \"" << jsonEscape(sp.note) << "\"}";
        first_site = false;
    }
    os << "], \"total_bits\": " << totalBits
       << ", \"residual_total_bits\": " << residualTotalBits
       << ", \"closed\": " << closedSites
       << ", \"narrowed\": " << narrowedSites
       << ", \"open\": " << openSites
       << ", \"verdict\": \""
       << (allClosed() ? "closed"
                       : (openSites == 0 ? "narrowed" : "open"))
       << "\"}";
    return os.str();
}

} // namespace csd
