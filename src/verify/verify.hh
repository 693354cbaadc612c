/**
 * @file
 * csd-verify: static analysis for simulated-ISA programs and the
 * uop-translation layer.
 *
 * Two entry points:
 *
 *  - verifyProgram(): CFG + path-walk + dataflow checks over one
 *    assembled Program (cfg.*, stack.*, df.*, mem.*, leak.* checks).
 *  - verifyTranslation(): opcode-complete cross-validation of the
 *    legacy decode / flow cache / CSD delivery paths plus the
 *    micro-table audit (trans.*, tables.* checks).
 *
 * A third pass family lives in verify/tier_equiv.hh: the static
 * tier-equivalence prover (tier.* checks), which proves the flow
 * cache's resolved translations equivalent to the reference translator
 * semantics (csd-lint --tiers).
 *
 * The standalone csd-lint driver (csd_lint.cc) runs all of them over
 * every shipped workload; ProgramBuilder::build() runs the cheap
 * structural subset automatically (see isa/program.cc).
 */

#ifndef CSD_VERIFY_VERIFY_HH
#define CSD_VERIFY_VERIFY_HH

#include "isa/program.hh"
#include "isa/finding.hh"
#include "verify/options.hh"
#include "verify/translation_check.hh"

namespace csd
{

/** Run all program-level checks over @p prog. */
VerifyReport verifyProgram(const Program &prog,
                           const VerifyOptions &options = {});

/** Run the translation-consistency checks and the micro-table audit. */
VerifyReport verifyTranslation();

/**
 * Post-process @p report for a target with options.expectLeak: leak.*
 * findings are consumed as confirmations (the victim is SUPPOSED to
 * leak) and their count is returned; if none fired, a
 * leak.expected-miss error is added under @p name — silence from the
 * lint on a known-leaky victim means the taint configuration has a
 * hole. No-op (returns 0) when expectLeak is unset.
 */
std::size_t resolveExpectedLeaks(VerifyReport &report,
                                 const VerifyOptions &options,
                                 const std::string &name);

} // namespace csd

#endif // CSD_VERIFY_VERIFY_HH
