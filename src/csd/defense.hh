/**
 * @file
 * The stealth-mode defense description (paper §IV): what the decoy
 * range MSRs cover and which secrets the DIFT trigger watches.
 *
 * One value describes a defense everywhere it is used: the static leak
 * prover judges it (verify/leak_prover.hh), the context-sensitive
 * decoder is armed from it (ContextSensitiveDecoder::arm), and a
 * sec::Victim runs under it. Plain data over common/ types, so the
 * verify layer can take it without depending on the simulator.
 */

#ifndef CSD_CSD_DEFENSE_HH
#define CSD_CSD_DEFENSE_HH

#include <vector>

#include "common/addr_range.hh"
#include "common/types.hh"

namespace csd
{

/** A stealth-mode defense configuration. */
struct DefenseConfig
{
    bool enabled = false;
    AddrRange decoyDRange;      //!< sensitive data (e.g. T-tables)
    AddrRange decoyIRange;      //!< sensitive code (e.g. multiply)
    /** Key material / secret intermediates (DIFT sources). */
    std::vector<AddrRange> taintSources;
    /** Stealth re-trigger period; the static prover ignores it. */
    Cycles watchdogPeriod = 1000;
    /** Hardware DIFT tag-access cost (extra L2 cycles); the static
     *  prover ignores it. */
    Cycles diftL2Penalty = 4;
};

} // namespace csd

#endif // CSD_CSD_DEFENSE_HH
