/**
 * @file
 * Classifier tests for the attacker-observation ledger
 * (sec/observation_ledger.hh): the mutual-information estimator on
 * hand-built tallies, plus seeded end-to-end scenarios through the
 * real attack primitives — FLUSH+RELOAD on the instruction side (the
 * RSA channel shape) and PRIME+PROBE on the data side (the AES channel
 * shape) — with exact pinned TP/FP/TN/FN counts, including the
 * noise-threshold boundary case (reload latency == threshold).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/json.hh"
#include "common/types.hh"
#include "memory/hierarchy.hh"
#include "sec/attacker.hh"
#include "sec/observation_ledger.hh"

namespace csd
{
namespace
{

using minijson::parseJson;
using Structure = CacheSetMonitor::Structure;

// ---------------------------------------------------------------------
// The MI estimator on hand-built contingency tables.
// ---------------------------------------------------------------------

TEST(LedgerTally, MutualInformationOnKnownTables)
{
    // Empty table: no observations, no information.
    EXPECT_EQ(LedgerTally{}.mutualInformationBits(), 0.0);

    // Perfect 50/50 correlation: one full bit per observation.
    LedgerTally perfect{/*tp=*/6, /*fp=*/0, /*tn=*/6, /*fn=*/0};
    EXPECT_DOUBLE_EQ(perfect.mutualInformationBits(), 1.0);

    // Constant observation (the defended case: decoys make every probe
    // read "active"): the attacker learns nothing, whatever the truth.
    LedgerTally constant{/*tp=*/4, /*fp=*/8, /*tn=*/0, /*fn=*/0};
    EXPECT_EQ(constant.mutualInformationBits(), 0.0);

    // Constant truth with a varying observation is equally worthless.
    LedgerTally constant_truth{/*tp=*/4, /*fp=*/0, /*tn=*/0, /*fn=*/8};
    EXPECT_EQ(constant_truth.mutualInformationBits(), 0.0);

    // Independence: prediction is a coin flip against the truth.
    LedgerTally coin{/*tp=*/3, /*fp=*/3, /*tn=*/3, /*fn=*/3};
    EXPECT_NEAR(coin.mutualInformationBits(), 0.0, 1e-12);

    // Asymmetric perfect correlation: I = H(0.25) bits.
    LedgerTally skewed{/*tp=*/3, /*fp=*/0, /*tn=*/9, /*fn=*/0};
    EXPECT_NEAR(skewed.mutualInformationBits(), 0.8112781244591328,
                1e-12);

    EXPECT_EQ(skewed.total(), 12u);
}

// ---------------------------------------------------------------------
// Seeded FLUSH+RELOAD (the RSA instruction-side channel shape).
// ---------------------------------------------------------------------

/**
 * 18 probe rounds against one monitored I-line with a fully scripted
 * victim: 16 clean rounds (touch on even rounds), one seeded false
 * positive (an unattributed prefetch re-warms the line), and one
 * seeded false negative (the line is flushed again after the victim's
 * touch, before the reload). Exact expected table:
 * tp=8 fp=1 tn=8 fn=1.
 */
TEST(ObservationLedger, SeededFlushReloadScenarioPinsClassification)
{
    MemHierarchy mem;
    CacheSetMonitor &monitor = mem.armSetMonitor();
    ObservationLedger ledger(monitor);

    const Addr line = 0x400100;
    const unsigned set = mem.l1i().setIndex(line);
    FlushReloadAttacker fr(mem, {line}, /*instr_side=*/true);

    const auto round = [&](bool victim_touches, bool prefetch,
                           bool reflush) {
        fr.flush();
        ledger.armLine("multiply", Structure::L1I, line);
        if (victim_touches) {
            CacheSetMonitor::ScopedActor victim(&monitor,
                                                MonitorActor::Victim);
            mem.fetchInstr(line);
        }
        if (prefetch)
            mem.fetchInstr(line);  // unattributed: not ground truth
        if (reflush)
            mem.flush(line);
        const ProbeResult r = fr.reload().front();
        ledger.observeLine("multiply", Structure::L1I, line, set,
                           r.latency, r.hit);
    };

    for (int i = 0; i < 16; ++i)
        round(/*victim_touches=*/i % 2 == 0, false, false);
    round(false, /*prefetch=*/true, false);   // seeded FP
    round(true, false, /*reflush=*/true);     // seeded FN

    const LedgerTally tally = ledger.tally("multiply");
    EXPECT_EQ(tally.tp, 8u);
    EXPECT_EQ(tally.fp, 1u);
    EXPECT_EQ(tally.tn, 8u);
    EXPECT_EQ(tally.fn, 1u);
    EXPECT_EQ(tally.total(), 18u);

    // A noisy-but-correlated channel: strictly between 0 and 1 bit.
    const double mi = tally.mutualInformationBits();
    EXPECT_GT(mi, 0.4);
    EXPECT_LT(mi, 1.0);
}

// ---------------------------------------------------------------------
// Seeded PRIME+PROBE (the AES data-side channel shape).
// ---------------------------------------------------------------------

/**
 * 13 probe rounds against one monitored L1D set: 12 clean rounds
 * (victim touch on every other round) plus one seeded false positive —
 * an unattributed access to a *different* line mapping to the same set
 * evicts an attacker way, so the probe screams "victim" while the
 * victim was idle. Exact expected table: tp=6 fp=1 tn=6 fn=0.
 */
TEST(ObservationLedger, SeededPrimeProbeScenarioPinsClassification)
{
    MemHierarchy mem;
    CacheSetMonitor &monitor = mem.armSetMonitor();
    ObservationLedger ledger(monitor);

    const Addr line = 0x1000;
    const Addr conflict =
        line + static_cast<Addr>(mem.l1d().numSets()) * cacheBlockSize;
    const unsigned set = mem.l1d().setIndex(line);
    ASSERT_EQ(mem.l1d().setIndex(conflict), set);
    PrimeProbeAttacker pp(mem, {line}, /*instr_side=*/false);

    const auto round = [&](bool victim_touches, bool conflict_touch) {
        pp.prime();
        ledger.armSet("t0", Structure::L1D, set);
        if (victim_touches) {
            CacheSetMonitor::ScopedActor victim(&monitor,
                                                MonitorActor::Victim);
            mem.readData(line);
        }
        if (conflict_touch)
            mem.readData(conflict);  // unattributed same-set traffic
        const ProbeResult r = pp.probe().front();
        // A probe "hit" means every attacker way survived, i.e. the
        // attacker concludes the victim did NOT touch the set.
        ledger.observeSet("t0", Structure::L1D, set, r.latency, !r.hit);
    };

    for (int i = 0; i < 12; ++i)
        round(/*victim_touches=*/i % 2 == 0, false);
    round(false, /*conflict_touch=*/true);  // seeded FP

    const LedgerTally tally = ledger.tally("t0");
    EXPECT_EQ(tally.tp, 6u);
    EXPECT_EQ(tally.fp, 1u);
    EXPECT_EQ(tally.tn, 6u);
    EXPECT_EQ(tally.fn, 0u);
    EXPECT_EQ(tally.total(), 13u);
    EXPECT_GT(tally.mutualInformationBits(), 0.5);
}

// ---------------------------------------------------------------------
// Noise-threshold boundary: latency == threshold counts as a hit.
// ---------------------------------------------------------------------

/**
 * The FLUSH+RELOAD classifier treats `latency <= threshold` as a hit,
 * and the threshold is exactly the worst all-level cache hit
 * (L1+L2+LLC). A reload served by the LLC therefore lands exactly ON
 * the threshold and must classify as a hit — which the ledger then
 * books as a false positive, because LLC residency is leftover harness
 * state, not a victim touch.
 */
TEST(ObservationLedger, ThresholdBoundaryReloadClassifiesAsHit)
{
    MemHierarchy mem;
    CacheSetMonitor &monitor = mem.armSetMonitor();
    ObservationLedger ledger(monitor);

    const Addr addr = 0x3000;
    const unsigned set = mem.l1d().setIndex(addr);
    FlushReloadAttacker fr(mem, {addr}, /*instr_side=*/false);

    fr.flush();
    ledger.armLine("boundary", Structure::L1D, addr);
    // Leave the block resident ONLY in the LLC: warm every level, then
    // peel the L1D and L2 copies off.
    mem.readData(addr);
    mem.l1d().invalidate(addr);
    mem.l2().invalidate(addr);

    const ProbeResult r = fr.reload().front();
    EXPECT_EQ(r.latency, fr.hitThreshold());  // exactly on the boundary
    EXPECT_TRUE(r.hit);
    ledger.observeLine("boundary", Structure::L1D, addr, set, r.latency,
                       r.hit);

    const LedgerTally tally = ledger.tally("boundary");
    EXPECT_EQ(tally.fp, 1u);
    EXPECT_EQ(tally.total(), 1u);

    // One cycle past the threshold (a DRAM-served reload) is a miss.
    fr.flush();
    ledger.armLine("boundary", Structure::L1D, addr);
    const ProbeResult cold = fr.reload().front();
    EXPECT_GT(cold.latency, fr.hitThreshold());
    EXPECT_FALSE(cold.hit);
    ledger.observeLine("boundary", Structure::L1D, addr, set,
                       cold.latency, cold.hit);
    EXPECT_EQ(ledger.tally("boundary").tn, 1u);
}

// ---------------------------------------------------------------------
// Bookkeeping: caps, ordering, JSON export.
// ---------------------------------------------------------------------

TEST(ObservationLedger, ObservationCapKeepsTallyCounting)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1D, 4);
    ObservationLedger ledger(monitor, /*observation_cap=*/2);

    for (int i = 0; i < 4; ++i) {
        ledger.armSet("s", Structure::L1D, 0);
        ledger.observeSet("s", Structure::L1D, 0, 10, i % 2 == 0);
    }
    EXPECT_EQ(ledger.observations("s").size(), 2u);
    EXPECT_EQ(ledger.tally("s").total(), 4u);
    EXPECT_EQ(ledger.totalObservations(), 4u);
    // Sites never observed answer an empty tally, not an error.
    EXPECT_EQ(ledger.tally("nope").total(), 0u);
    EXPECT_TRUE(ledger.observations("nope").empty());
}

TEST(ObservationLedger, SiteMeasuresSortedAndJsonParses)
{
    CacheSetMonitor monitor;
    monitor.attach(Structure::L1D, 4);
    monitor.attach(Structure::L1I, 4);
    ObservationLedger ledger(monitor);

    ledger.armSet("zeta", Structure::L1D, 1);
    ledger.observeSet("zeta", Structure::L1D, 1, 5, true);
    ledger.armSet("alpha", Structure::L1I, 2);
    ledger.observeSet("alpha", Structure::L1I, 2, 7, false);

    const std::vector<SiteMeasure> measures = ledger.siteMeasures();
    ASSERT_EQ(measures.size(), 2u);
    EXPECT_EQ(measures[0].site, "alpha");
    EXPECT_EQ(measures[0].structure, Structure::L1I);
    EXPECT_EQ(measures[1].site, "zeta");
    EXPECT_EQ(measures[1].miBits,
              measures[1].tally.mutualInformationBits());

    std::ostringstream os;
    ledger.writeJson(os);
    const auto doc = parseJson(os.str());
    EXPECT_EQ(doc->at("schema_version").number, 1.0);
    EXPECT_EQ(doc->at("total_observations").number, 2.0);
    const auto &zeta = doc->at("sites").at("zeta");
    EXPECT_EQ(zeta.at("structure").str, "l1d");
    EXPECT_EQ(zeta.at("fp").number, 1.0);
    EXPECT_EQ(zeta.at("observations").number, 1.0);
    EXPECT_TRUE(zeta.has("bits_per_observation"));
}

} // namespace
} // namespace csd
