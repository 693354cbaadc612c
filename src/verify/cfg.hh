/**
 * @file
 * Control-flow graph over an assembled isa::Program.
 *
 * Basic blocks are maximal runs of instructions with one entry (the
 * block leader) and one exit (a control transfer, a halt, or the
 * instruction before another leader). Edges cover fall-through, direct
 * branch targets, and call/return structure: a Call block's successor
 * is the callee's entry block, and Ret blocks gain edges to every
 * return site discovered by the path walk (verify/program_verifier).
 *
 * Construction also performs the structural checks shared with the
 * ProgramBuilder::build() hook: direct branch and call targets must
 * land on an instruction, and the entry PC must be executable.
 */

#ifndef CSD_VERIFY_CFG_HH
#define CSD_VERIFY_CFG_HH

#include <cstddef>
#include <vector>

#include "isa/program.hh"
#include "isa/finding.hh"

namespace csd
{

/** One basic block: instruction indices [first, last] inclusive. */
struct BasicBlock
{
    std::size_t first = 0;
    std::size_t last = 0;
    std::vector<std::size_t> succs;  //!< successor block indices
    std::vector<std::size_t> preds;  //!< predecessor block indices
    bool reachable = false;          //!< set by the path walk
};

/** The CFG of one Program. */
class Cfg
{
  public:
    /**
     * Build the CFG; structural findings (dangling targets, bad
     * entry) go to @p report.
     */
    static Cfg build(const Program &prog, VerifyReport &report);

    const Program &program() const { return *prog_; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }
    std::vector<BasicBlock> &blocks() { return blocks_; }

    /** Block containing instruction @p instr_idx. */
    std::size_t blockOf(std::size_t instr_idx) const
    {
        return blockOfInstr_[instr_idx];
    }

    /** Block whose leader is instruction @p instr_idx, or npos. */
    std::size_t blockAtLeader(std::size_t instr_idx) const;

    /** Index of the entry block, or npos if the program is empty. */
    std::size_t entryBlock() const { return entryBlock_; }

    /** Enclosing symbol of @p pc (innermost), or "" if none. */
    std::string symbolAt(Addr pc) const;

    /** Add an edge discovered after construction (ret return sites). */
    void addEdge(std::size_t from_block, std::size_t to_block);

    static constexpr std::size_t npos = ~static_cast<std::size_t>(0);

  private:
    const Program *prog_ = nullptr;
    std::vector<BasicBlock> blocks_;
    std::vector<std::size_t> blockOfInstr_;
    std::size_t entryBlock_ = npos;
};

} // namespace csd

#endif // CSD_VERIFY_CFG_HH
