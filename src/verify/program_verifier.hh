/**
 * @file
 * Dataflow checks over a Program's CFG.
 *
 * Two passes (see DESIGN.md "Verification layer"):
 *
 *  - Path walk: a memoized DFS over execution paths carrying the
 *    call/return stack and the push/pop depth. Finds unbalanced
 *    stacks, pop/ret underflows, ret-without-call, halting with live
 *    stack values, and falling off the end of the code. It also marks
 *    reachable blocks (unreachable ones are reported) and discovers
 *    the concrete Ret -> return-site edges the dataflow pass needs.
 *
 *  - Dataflow: an iterative forward analysis (may-undefined, constant
 *    propagation, taint) that reports use-before-def registers,
 *    branches on undefined flags, statically resolvable memory
 *    accesses outside declared regions, stores into code, and the
 *    leak lint: secret-tainted branches and tainted-index accesses.
 */

#ifndef CSD_VERIFY_PROGRAM_VERIFIER_HH
#define CSD_VERIFY_PROGRAM_VERIFIER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "verify/cfg.hh"
#include "isa/finding.hh"
#include "verify/options.hh"

namespace csd
{

/** How a leak site leaks (mirrors the leak.* check ids). */
enum class LeakKind : std::uint8_t
{
    TaintedBranch,    //!< leak.tainted-branch on a conditional branch
    TaintedIndirect,  //!< leak.tainted-branch on an indirect jump
    TaintedIndex,     //!< leak.tainted-index on a load/store address
};

/** Printable kind name ("tainted-branch"/...). */
const char *leakKindName(LeakKind kind);

/**
 * One confirmed leak site, with the dataflow facts the channel model
 * needs to resolve its secret-dependent footprint into concrete
 * hardware coordinates (verify/channel_model.hh).
 */
struct LeakSite
{
    LeakKind kind = LeakKind::TaintedBranch;
    Addr pc = invalidAddr;
    std::string symbol;
    std::size_t instrIndex = 0;  //!< index into Program::code()

    // TaintedIndex facts
    bool isStore = false;
    bool baseKnown = false;   //!< base+disp statically resolved
    Addr baseAddr = 0;        //!< resolved base (table start)
    unsigned accessBytes = 0;

    // TaintedBranch facts
    Addr targetPc = invalidAddr;  //!< direct branch target
};

/**
 * Walk execution paths from the entry: stack-balance checks,
 * reachability marking, and Ret return-site edge discovery.
 */
void runPathWalk(Cfg &cfg, const VerifyOptions &options,
                 VerifyReport &report);

/**
 * Iterative dataflow over the (path-walked) CFG: use-before-def,
 * memory-region checks, and the leak lint. Expects runPathWalk() to
 * have marked reachability and added return edges. When @p leak_sites
 * is non-null, every leak.* finding also records a LeakSite with the
 * dataflow facts the channel model consumes.
 */
void runDataflow(const Cfg &cfg, const VerifyOptions &options,
                 VerifyReport &report,
                 std::vector<LeakSite> *leak_sites = nullptr);

} // namespace csd

#endif // CSD_VERIFY_PROGRAM_VERIFIER_HH
