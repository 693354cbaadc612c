#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "verify/leak_prover.hh"
#include "verify/verify.hh"
#include "workloads/aes.hh"
#include "workloads/blowfish.hh"
#include "workloads/rijndael.hh"
#include "workloads/rsa.hh"

namespace csd
{
namespace
{

const std::array<std::uint8_t, 16> aesKey = {
    0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
    0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};

constexpr unsigned rsaBits = 24;

struct ProverCase
{
    std::string name;
    Program program;
    VerifyOptions options;
    DefenseConfig defense;
    ProveOptions prove;
    std::size_t expectedSites;
};

/** The same canonical victim/defense configurations csd-lint proves. */
std::vector<ProverCase>
canonicalCases()
{
    std::vector<ProverCase> cases;

    {
        ProverCase c;
        const RsaWorkload w = RsaWorkload::build(
            {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
            0xb1e55ed, rsaBits);
        c.name = "rsa";
        c.program = w.program;
        c.options.taintSources = {w.exponentRange};
        c.options.expectLeak = true;
        c.defense = w.defense();
        c.prove.keyLoopIterations = rsaBits;
        c.expectedSites = 1;
        cases.push_back(std::move(c));
    }
    for (const bool decrypt : {false, true}) {
        ProverCase c;
        const AesWorkload w = AesWorkload::build(aesKey, decrypt);
        c.name = decrypt ? "aes-dec" : "aes";
        c.program = w.program;
        c.options.taintSources = {w.keyRange};
        c.options.expectLeak = true;
        c.defense = w.defense();
        c.expectedSites = 160;
        cases.push_back(std::move(c));
    }
    {
        ProverCase c;
        const BlowfishWorkload w = BlowfishWorkload::build(
            {0x13, 0x37, 0xc0, 0xde, 0xfa, 0xce, 0xb0, 0x0c});
        c.name = "blowfish";
        c.program = w.program;
        c.options.taintSources = {w.keyRange};
        c.options.expectLeak = true;
        c.defense = w.defense();
        c.expectedSites = 64;
        cases.push_back(std::move(c));
    }
    {
        ProverCase c;
        const RijndaelWorkload w = RijndaelWorkload::build(
            {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
             0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f});
        c.name = "rijndael";
        c.program = w.program;
        c.options.taintSources = {w.keyRange};
        c.options.expectLeak = true;
        c.defense = w.defense();
        c.expectedSites = 160;
        cases.push_back(std::move(c));
    }
    return cases;
}

// ---------------------------------------------------------------------
// Property: every confirmed leak site resolves to exactly one channel
// classification with a concrete, non-trivial footprint.
// ---------------------------------------------------------------------

TEST(LeakProver, EverySiteResolvesToExactlyOneChannel)
{
    for (const ProverCase &c : canonicalCases()) {
        const LeakProof proof =
            proveLeaks(c.program, c.options, c.defense, c.prove);
        EXPECT_EQ(proof.sites.size(), c.expectedSites) << c.name;

        std::set<Addr> pcs;
        for (const SiteProof &sp : proof.sites) {
            // One classification per site: the channel is a function
            // of the leak kind, and the footprint must be concrete.
            if (sp.site.kind == LeakKind::TaintedIndex)
                EXPECT_EQ(sp.footprint.channel, Channel::L1DAccess)
                    << c.name;
            else
                EXPECT_EQ(sp.footprint.channel, Channel::L1IFetch)
                    << c.name;
            EXPECT_FALSE(sp.footprint.lines.empty())
                << c.name << " pc 0x" << std::hex << sp.site.pc;
            EXPECT_GT(sp.bitsPerObservation, 0.0) << c.name;
            EXPECT_FALSE(sp.site.symbol.empty()) << c.name;
            EXPECT_TRUE(pcs.insert(sp.site.pc).second)
                << c.name << ": duplicate site pc";
        }
        // The prover and the lint must agree on what leaks: same count
        // of leak.* confirmations.
        VerifyReport report = verifyProgram(c.program, c.options);
        EXPECT_EQ(resolveExpectedLeaks(report, c.options, c.name),
                  c.expectedSites) << c.name;
    }
}

TEST(LeakProver, AllSitesClosedUnderCanonicalDefense)
{
    for (const ProverCase &c : canonicalCases()) {
        const LeakProof proof =
            proveLeaks(c.program, c.options, c.defense, c.prove);
        EXPECT_TRUE(proof.allClosed()) << c.name << "\n" << proof.text();
        EXPECT_EQ(proof.closedSites, c.expectedSites) << c.name;
        EXPECT_DOUBLE_EQ(proof.residualTotalBits, 0.0) << c.name;
        EXPECT_GT(proof.totalBits, 0.0) << c.name;
    }
}

TEST(LeakProver, DisabledDefenseLeavesEverySiteOpen)
{
    for (const ProverCase &c : canonicalCases()) {
        DefenseConfig off;
        const LeakProof proof =
            proveLeaks(c.program, c.options, off, c.prove);
        EXPECT_EQ(proof.openSites, c.expectedSites) << c.name;
        EXPECT_DOUBLE_EQ(proof.residualTotalBits, proof.totalBits)
            << c.name;
    }
}

TEST(LeakProver, TaintBlindDefenseStaysOpen)
{
    // A decoy range that covers everything is still useless if the
    // DIFT sources don't include the secret: the taint-gated decoder
    // never triggers.
    for (const ProverCase &c : canonicalCases()) {
        DefenseConfig blind = c.defense;
        blind.taintSources = {AddrRange(0x70000000, 0x70000010)};
        const LeakProof proof =
            proveLeaks(c.program, c.options, blind, c.prove);
        EXPECT_EQ(proof.openSites, c.expectedSites) << c.name;
    }
}

TEST(LeakProver, RsaBranchFootprintIsTheMultiplyCode)
{
    const RsaWorkload w = RsaWorkload::build(
        {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
        0xb1e55ed, rsaBits);
    VerifyOptions options;
    options.taintSources = {w.exponentRange};
    DefenseConfig defense;
    defense.enabled = true;
    defense.decoyIRange = w.multiplyRange;
    defense.taintSources = {w.exponentRange};
    ProveOptions prove;
    prove.keyLoopIterations = rsaBits;

    const LeakProof proof = proveLeaks(w.program, options, defense, prove);
    ASSERT_EQ(proof.sites.size(), 1u);
    const SiteProof &sp = proof.sites.front();
    EXPECT_EQ(sp.site.kind, LeakKind::TaintedBranch);
    // The branch-exclusive cone is exactly the multiply function: the
    // square/reduce code runs on both sides, and multiply is
    // cache-line-aligned so no line is shared with neighbors.
    for (Addr line : sp.footprint.lines)
        EXPECT_TRUE(w.multiplyRange.contains(line))
            << std::hex << line << " outside rsa_multiply";
    EXPECT_EQ(sp.footprint.lines.size(), w.multiplyRange.blockCount());
    // One bit per key-loop iteration, summed over the exponent.
    EXPECT_DOUBLE_EQ(sp.bitsPerObservation, 1.0);
    EXPECT_DOUBLE_EQ(sp.totalBits, static_cast<double>(rsaBits));
    EXPECT_EQ(sp.verdict, LeakVerdict::Closed);
    EXPECT_FALSE(sp.footprint.uopSets.empty());
}

TEST(LeakProver, PartialDecoyNarrowsIndexLeaks)
{
    const AesWorkload w = AesWorkload::build(aesKey);
    VerifyOptions options;
    options.taintSources = {w.keyRange};
    DefenseConfig defense;
    defense.enabled = true;
    defense.taintSources = {w.keyRange};
    // Cover the first three tables fully and half of Te3: Te0..Te2
    // sites close, Te3 sites narrow to log2(8 residual lines + 1).
    defense.decoyDRange =
        AddrRange(w.tTableRange.start, w.tTableRange.end - 512);

    const LeakProof proof = proveLeaks(w.program, options, defense, {});
    EXPECT_EQ(proof.sites.size(), 160u);
    EXPECT_GT(proof.closedSites, 0u);
    EXPECT_GT(proof.narrowedSites, 0u);
    EXPECT_EQ(proof.openSites, 0u);
    for (const SiteProof &sp : proof.sites) {
        if (sp.verdict != LeakVerdict::Narrowed)
            continue;
        EXPECT_EQ(sp.residualLines, 8u);
        EXPECT_DOUBLE_EQ(sp.residualBitsPerObservation, std::log2(9.0));
        EXPECT_LT(sp.residualBitsPerObservation, sp.bitsPerObservation);
    }
    EXPECT_GT(proof.residualTotalBits, 0.0);
    EXPECT_LT(proof.residualTotalBits, proof.totalBits);
}

// ---------------------------------------------------------------------
// Property: leak.expected-miss fires when the leaky code is stubbed.
// ---------------------------------------------------------------------

/** A one-lookup "victim": leaky (key-indexed load) or stubbed. */
Program
miniVictim(bool stubbed)
{
    ProgramBuilder b;
    const Addr secret = b.reserveData("secret", 8);
    const Addr table = b.reserveData("table", 1024, 64);
    b.markEntry();
    b.load(Gpr::Rbx, memAbs(secret));
    b.andi(Gpr::Rbx, 0xff);
    if (stubbed)
        b.movri(Gpr::Rbx, 0);  // leaky loop stubbed: constant index
    b.load(Gpr::Rax, memTable(table, Gpr::Rbx, 4));
    b.halt();
    return b.build();
}

TEST(LeakProver, ExpectedMissFiresOnStubbedVictim)
{
    for (const bool stubbed : {false, true}) {
        const Program prog = miniVictim(stubbed);
        VerifyOptions options;
        options.taintSources = {prog.symbol("secret")};
        options.expectLeak = true;

        VerifyReport report = verifyProgram(prog, options);
        const std::size_t hits =
            resolveExpectedLeaks(report, options, "mini");
        const LeakProof proof =
            proveLeaks(prog, options, DefenseConfig{}, {});
        if (stubbed) {
            EXPECT_EQ(hits, 0u);
            EXPECT_TRUE(report.hasCheck("leak.expected-miss"));
            EXPECT_TRUE(proof.sites.empty());
        } else {
            EXPECT_EQ(hits, 1u);
            EXPECT_FALSE(report.hasCheck("leak.expected-miss"));
            ASSERT_EQ(proof.sites.size(), 1u);
            EXPECT_EQ(proof.sites[0].site.kind, LeakKind::TaintedIndex);
            EXPECT_EQ(proof.sites[0].footprint.lines.size(), 16u);
        }
    }
}

TEST(LeakProver, ReportRenderingsNameEverySite)
{
    const ProverCase c = canonicalCases().front();  // rsa
    const LeakProof proof =
        proveLeaks(c.program, c.options, c.defense, c.prove);
    const std::string text = proof.text();
    EXPECT_NE(text.find("rsa_main"), std::string::npos);
    EXPECT_NE(text.find("closed"), std::string::npos);
    const std::string json = proof.json("rsa");
    EXPECT_NE(json.find("\"target\": \"rsa\""), std::string::npos);
    EXPECT_NE(json.find("\"verdict\": \"closed\""), std::string::npos);
    EXPECT_NE(json.find("\"channel\": \"l1i-fetch\""), std::string::npos);
}

} // namespace
} // namespace csd
