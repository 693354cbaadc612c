#include "verify/cfg.hh"

#include <algorithm>
#include <set>

namespace csd
{

std::string
Cfg::symbolAt(Addr pc) const
{
    return innermostSymbol(*prog_, pc);
}

std::size_t
Cfg::blockAtLeader(std::size_t instr_idx) const
{
    if (instr_idx >= blockOfInstr_.size())
        return npos;
    const std::size_t blk = blockOfInstr_[instr_idx];
    return blocks_[blk].first == instr_idx ? blk : npos;
}

void
Cfg::addEdge(std::size_t from_block, std::size_t to_block)
{
    auto &succs = blocks_[from_block].succs;
    if (std::find(succs.begin(), succs.end(), to_block) != succs.end())
        return;
    succs.push_back(to_block);
    blocks_[to_block].preds.push_back(from_block);
}

Cfg
Cfg::build(const Program &prog, VerifyReport &report)
{
    Cfg cfg;
    cfg.prog_ = &prog;
    const auto &code = prog.code();
    if (code.empty()) {
        report.add("cfg.bad-entry", Severity::Error, invalidAddr, "",
                   "program has no instructions");
        return cfg;
    }

    // Map a target PC to an instruction index, reporting danglers.
    auto target_index = [&](const MacroOp &op) -> std::size_t {
        const MacroOp *hit = prog.at(op.target);
        if (!hit) {
            report.add("cfg.dangling-target", Severity::Error, op.pc,
                       cfg.symbolAt(op.pc),
                       mnemonic(op.opcode) + " target " + hexPc(op.target) +
                           " does not start an instruction");
            return npos;
        }
        return static_cast<std::size_t>(hit - code.data());
    };

    // --- find leaders ----------------------------------------------------
    std::set<std::size_t> leaders;
    leaders.insert(0);
    const MacroOp *entry_op = prog.at(prog.entry());
    if (!entry_op) {
        report.add("cfg.bad-entry", Severity::Error, prog.entry(), "",
                   "entry PC " + hexPc(prog.entry()) +
                       " does not start an instruction");
    } else {
        leaders.insert(static_cast<std::size_t>(entry_op - code.data()));
    }

    for (std::size_t i = 0; i < code.size(); ++i) {
        const MacroOp &op = code[i];
        if (!isBranch(op.opcode) && op.opcode != MacroOpcode::Halt)
            continue;
        if (i + 1 < code.size())
            leaders.insert(i + 1);
        if (isDirectBranch(op.opcode) || isCall(op.opcode)) {
            const std::size_t target = target_index(op);
            if (target != npos)
                leaders.insert(target);
        }
    }

    // --- carve blocks -----------------------------------------------------
    cfg.blockOfInstr_.assign(code.size(), 0);
    for (auto it = leaders.begin(); it != leaders.end(); ++it) {
        auto next = std::next(it);
        BasicBlock blk;
        blk.first = *it;
        blk.last = (next == leaders.end() ? code.size() : *next) - 1;
        for (std::size_t i = blk.first; i <= blk.last; ++i)
            cfg.blockOfInstr_[i] = cfg.blocks_.size();
        cfg.blocks_.push_back(std::move(blk));
    }

    // --- edges ------------------------------------------------------------
    for (std::size_t b = 0; b < cfg.blocks_.size(); ++b) {
        const BasicBlock &blk = cfg.blocks_[b];
        const MacroOp &exit = code[blk.last];
        const MacroOpcode op = exit.opcode;

        if (op == MacroOpcode::Halt)
            continue;
        if (isDirectBranch(op) || isCall(op)) {
            const MacroOp *hit = prog.at(exit.target);
            if (hit) {
                cfg.addEdge(b, cfg.blockOfInstr_[static_cast<std::size_t>(
                                   hit - code.data())]);
            }
            // Conditional fall-through. A Call's fall-through is only
            // reachable through the callee's Ret; the path walk adds
            // that edge with the discovered return sites.
            if (op == MacroOpcode::Jcc && exit.cond != Cond::Always &&
                blk.last + 1 < code.size()) {
                cfg.addEdge(b, cfg.blockOfInstr_[blk.last + 1]);
            }
        } else if (isReturn(op) || op == MacroOpcode::JmpInd) {
            // Successors unknown statically; the path walk fills in
            // Ret return sites. Indirect jumps stay terminal.
        } else if (blk.last + 1 < code.size()) {
            // Plain fall-through into the next block.
            cfg.addEdge(b, cfg.blockOfInstr_[blk.last + 1]);
        }
    }

    if (entry_op) {
        cfg.entryBlock_ =
            cfg.blockOfInstr_[static_cast<std::size_t>(entry_op -
                                                       code.data())];
    }
    return cfg;
}

} // namespace csd
