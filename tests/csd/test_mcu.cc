#include <gtest/gtest.h>

#include <string>

#include "csd/mcu.hh"
#include "csd/mcu_presets.hh"
#include "isa/program.hh"

namespace csd
{
namespace
{

/** An update that counts loads into a scratch register (remapped). */
McuBlob
instrumentationBlob()
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Load;
    entry.placement = McuPlacement::Append;
    ProgramBuilder b;
    b.addi(Gpr::Rax, 1);  // rax gets remapped to a decoder temp
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    return blob;
}

TEST(Mcu, ChecksumDetectsTampering)
{
    McuBlob blob = instrumentationBlob();
    McuEngine engine;
    std::string error;
    // Tamper with the data part after sealing.
    blob.entries[0].nativeCode[0].imm = 999;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("integrity"), std::string::npos);
    EXPECT_EQ(engine.size(), 0u);
}

TEST(Mcu, BadSignatureRejected)
{
    McuBlob blob = instrumentationBlob();
    blob.header.signature = 0xbadc0de;
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("signature"), std::string::npos);
}

TEST(Mcu, NotMarkedForAutoTranslationRejected)
{
    McuBlob blob = instrumentationBlob();
    blob.header.autoTranslate = false;
    sealMcu(blob);
    McuEngine engine;
    EXPECT_FALSE(engine.applyUpdate(blob));
}

TEST(Mcu, ValidUpdateInstallsAndTranslates)
{
    McuBlob blob = instrumentationBlob();
    McuEngine engine;
    std::string error;
    ASSERT_TRUE(engine.applyUpdate(blob, &error)) << error;
    const CustomTranslation *xlat = engine.lookup(MacroOpcode::Load);
    ASSERT_NE(xlat, nullptr);
    EXPECT_EQ(xlat->placement, McuPlacement::Append);
    ASSERT_FALSE(xlat->uops.empty());
    // The add-immediate was auto-translated and remapped to a temp.
    EXPECT_EQ(xlat->uops[0].op, MicroOpcode::Add);
    EXPECT_TRUE(xlat->uops[0].dst.isIntTemp());
}

TEST(Mcu, ArchWritesRequireHeaderFlag)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Store;
    ProgramBuilder b;
    b.storeImm(memAbs(0x9000, MemSize::B8), 1);  // memory write
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);

    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("allowArchWrites"), std::string::npos);

    blob.header.allowArchWrites = true;
    sealMcu(blob);
    EXPECT_TRUE(engine.applyUpdate(blob, &error)) << error;
    const CustomTranslation *xlat = engine.lookup(MacroOpcode::Store);
    ASSERT_NE(xlat, nullptr);
    EXPECT_TRUE(xlat->uops[0].isStore());
}

TEST(Mcu, BranchesInUpdatesRejected)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Nop;
    ProgramBuilder b;
    auto label = b.newLabel();
    b.bind(label);
    b.jmp(label);
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("control transfer"), std::string::npos);
}

TEST(Mcu, OptimizerRemovesDeadTemps)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Nop;
    ProgramBuilder b;
    b.movri(Gpr::Rax, 5);   // dead: overwritten below, never read
    b.movri(Gpr::Rax, 7);
    b.addi(Gpr::Rbx, 1);
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);

    McuEngine engine;
    std::string error;
    ASSERT_TRUE(engine.applyUpdate(blob, &error)) << error;
    const CustomTranslation *xlat = engine.lookup(MacroOpcode::Nop);
    ASSERT_NE(xlat, nullptr);
    // The first mov is overwritten before being read and is removed;
    // the second mov and the add survive (temps stay live to flow end).
    EXPECT_EQ(xlat->uops.size(), 2u);
    EXPECT_EQ(xlat->uops[0].op, MicroOpcode::LoadImm);
    EXPECT_EQ(static_cast<int>(xlat->uops[0].imm), 7);
    EXPECT_EQ(xlat->uops[1].op, MicroOpcode::Add);
}

TEST(Mcu, TooManyRegistersRejected)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Nop;
    ProgramBuilder b;
    // 8 distinct registers > 6 available decoder temps.
    for (unsigned i = 0; i < 8; ++i)
        b.aluImm(MacroOpcode::AddI, static_cast<Gpr>(i), 1);
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("temporaries"), std::string::npos);
}

TEST(Mcu, EmptyUpdateRejected)
{
    McuBlob blob;
    sealMcu(blob);
    McuEngine engine;
    EXPECT_FALSE(engine.applyUpdate(blob));
}

TEST(Mcu, AtomicRejectionAcrossEntries)
{
    // One good entry plus one bad entry: nothing installs.
    McuBlob blob = instrumentationBlob();
    McuEntry bad;
    bad.targetOpcode = MacroOpcode::Add;
    ProgramBuilder b;
    b.cpuid();  // microsequenced -> rejected
    bad.nativeCode = b.build().code();
    blob.entries.push_back(bad);
    sealMcu(blob);
    McuEngine engine;
    EXPECT_FALSE(engine.applyUpdate(blob));
    EXPECT_EQ(engine.size(), 0u);
    EXPECT_EQ(engine.lookup(MacroOpcode::Load), nullptr);
}

TEST(Mcu, PartialFailureLeavesEngineStateUntouched)
{
    // A previously-applied update plus a later partially-bad blob:
    // the reject must leave the table, the stat counters, and the
    // revision watermark exactly as they were before the bad apply.
    McuBlob good = instrumentationBlob();
    McuEngine engine;
    ASSERT_TRUE(engine.applyUpdate(good));
    ASSERT_EQ(engine.updatesApplied(), 1u);
    ASSERT_EQ(engine.installedRevision(), 1u);

    McuBlob mixed;
    mixed.header.revision = 2;
    McuEntry ok;
    ok.targetOpcode = MacroOpcode::Store;
    ProgramBuilder okb;
    okb.addi(Gpr::Rcx, 2);
    ok.nativeCode = okb.build().code();
    McuEntry bad;
    bad.targetOpcode = MacroOpcode::Add;
    ProgramBuilder badb;
    badb.cpuid();
    bad.nativeCode = badb.build().code();
    mixed.entries = {ok, bad};
    sealMcu(mixed);

    EXPECT_FALSE(engine.applyUpdate(mixed));
    EXPECT_EQ(engine.size(), 1u);
    EXPECT_EQ(engine.lookup(MacroOpcode::Store), nullptr);
    EXPECT_NE(engine.lookup(MacroOpcode::Load), nullptr);
    EXPECT_EQ(engine.updatesApplied(), 1u);
    EXPECT_EQ(engine.updatesRejected(), 1u);
    EXPECT_EQ(engine.installedRevision(), 1u);
}

TEST(Mcu, RevisionDowngradeRejected)
{
    McuBlob first = instrumentationBlob();
    first.header.revision = 5;
    sealMcu(first);
    McuEngine engine;
    std::string error;
    ASSERT_TRUE(engine.applyUpdate(first, &error)) << error;
    EXPECT_EQ(engine.installedRevision(), 5u);

    // Equal and lower revisions are both downgrades.
    for (std::uint32_t revision : {5u, 4u}) {
        McuBlob stale = instrumentationBlob();
        stale.header.revision = revision;
        sealMcu(stale);
        EXPECT_FALSE(engine.applyUpdate(stale, &error));
        EXPECT_NE(error.find("downgrade"), std::string::npos) << error;
    }
    EXPECT_EQ(engine.installedRevision(), 5u);
    EXPECT_EQ(engine.updatesRejected(), 2u);

    McuBlob next = instrumentationBlob();
    next.header.revision = 6;
    sealMcu(next);
    EXPECT_TRUE(engine.applyUpdate(next, &error)) << error;
    EXPECT_EQ(engine.installedRevision(), 6u);
}

TEST(Mcu, DuplicateTargetOpcodesRejected)
{
    McuBlob blob = instrumentationBlob();
    blob.entries.push_back(blob.entries.front());
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
    EXPECT_EQ(engine.size(), 0u);
}

TEST(Mcu, EmptyBlobChecksumIsDefinedAndRejected)
{
    // An empty data part has a well-defined (FNV offset-basis)
    // checksum, and a sealed empty blob is still rejected for having
    // no entries — integrity alone does not admit it.
    McuBlob a, b;
    EXPECT_EQ(mcuChecksum(a), mcuChecksum(b));
    sealMcu(a);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(a, &error));
    EXPECT_NE(error.find("no translation entries"), std::string::npos)
        << error;
}

TEST(Mcu, ChecksumIsOrderSensitive)
{
    // Entry order is part of the sealed contract (placement semantics
    // make install order architecturally significant): swapping two
    // entries changes the checksum, so a reordered blob must be
    // resealed before it can load.
    McuBlob blob = instrumentationBlob();
    McuEntry second;
    second.targetOpcode = MacroOpcode::Store;
    ProgramBuilder b;
    b.addi(Gpr::Rdx, 3);
    second.nativeCode = b.build().code();
    blob.entries.push_back(second);
    sealMcu(blob);
    const std::uint32_t sealed = blob.header.checksum;

    std::swap(blob.entries[0], blob.entries[1]);
    EXPECT_NE(mcuChecksum(blob), sealed);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("integrity"), std::string::npos) << error;
}

TEST(Mcu, TamperingCoveredFieldsAfterSealDetected)
{
    // Every checksum-covered field: flipping it after sealing must be
    // caught by the integrity check.
    {
        McuBlob blob = instrumentationBlob();
        blob.entries[0].targetOpcode = MacroOpcode::Store;
        McuEngine engine;
        EXPECT_FALSE(engine.applyUpdate(blob));
    }
    {
        McuBlob blob = instrumentationBlob();
        blob.entries[0].placement = McuPlacement::Replace;
        McuEngine engine;
        EXPECT_FALSE(engine.applyUpdate(blob));
    }
    {
        McuBlob blob = instrumentationBlob();
        blob.entries[0].nativeCode[0].dst = Gpr::Rbx;
        McuEngine engine;
        EXPECT_FALSE(engine.applyUpdate(blob));
    }
}

TEST(Mcu, FlagWritesStrippedByContainment)
{
    // The remapped add must not clobber architectural RFLAGS: the
    // auto-translator strips flag writes alongside the register remap.
    McuBlob blob = instrumentationBlob();
    McuEngine engine;
    std::string error;
    ASSERT_TRUE(engine.applyUpdate(blob, &error)) << error;
    const CustomTranslation *xlat = engine.lookup(MacroOpcode::Load);
    ASSERT_NE(xlat, nullptr);
    for (const Uop &uop : xlat->uops)
        EXPECT_FALSE(uop.writesFlags);
}

TEST(Mcu, VectorRegistersRemapToVecTemps)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Nop;
    ProgramBuilder b;
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm0, Xmm::Xmm1);
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    ASSERT_TRUE(engine.applyUpdate(blob, &error)) << error;
    const CustomTranslation *xlat = engine.lookup(MacroOpcode::Nop);
    ASSERT_NE(xlat, nullptr);
    ASSERT_FALSE(xlat->uops.empty());
    for (const Uop &uop : xlat->uops) {
        if (uop.dst.valid()) {
            EXPECT_TRUE(uop.dst.isVecTemp() || uop.dst.isIntTemp());
        }
        if (uop.src1.valid() && uop.src1.cls == RegClass::Vec) {
            EXPECT_TRUE(uop.src1.isVecTemp());
        }
        if (uop.src2.valid() && uop.src2.cls == RegClass::Vec) {
            EXPECT_TRUE(uop.src2.isVecTemp());
        }
    }
}

TEST(Mcu, TooManyVectorRegistersRejected)
{
    McuBlob blob;
    McuEntry entry;
    entry.targetOpcode = MacroOpcode::Nop;
    ProgramBuilder b;
    // 6 distinct XMM registers > 4 vector decoder temps.
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm0, Xmm::Xmm1);
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm2, Xmm::Xmm3);
    b.vecOp(MacroOpcode::Pxor, Xmm::Xmm4, Xmm::Xmm5);
    entry.nativeCode = b.build().code();
    blob.entries.push_back(entry);
    sealMcu(blob);
    McuEngine engine;
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_NE(error.find("temporaries"), std::string::npos) << error;
}

TEST(Mcu, AdmissionProverGatesInstallAtomically)
{
    McuBlob blob = instrumentationBlob();
    McuEngine engine;
    unsigned calls = 0;
    engine.setAdmissionProver(
        [&calls](const McuBlob &, const McuEngine &, std::string *why) {
            ++calls;
            if (why)
                *why = "policy says no";
            return false;
        });
    std::string error;
    EXPECT_FALSE(engine.applyUpdate(blob, &error));
    EXPECT_EQ(calls, 1u);
    EXPECT_EQ(error, "policy says no");
    EXPECT_EQ(engine.size(), 0u);
    EXPECT_EQ(engine.installedRevision(), 0u);
    EXPECT_EQ(engine.updatesRejected(), 1u);

    // Removing the hook restores plain admission.
    engine.setAdmissionProver({});
    EXPECT_TRUE(engine.applyUpdate(blob, &error)) << error;
    EXPECT_EQ(engine.size(), 1u);
}

TEST(Mcu, TextFormatRoundTripsPresets)
{
    for (const McuBlob &blob :
         {mcuLoadInstrumentationPreset(),
          mcuConstantTimeSweepPreset(
              AddrRange{0x600000, 0x600000 + 4 * cacheBlockSize})}) {
        const std::string text = mcuBlobToText(blob);
        McuBlob parsed;
        std::string error;
        ASSERT_TRUE(mcuBlobFromText(text, parsed, &error)) << error;
        EXPECT_EQ(mcuBlobToText(parsed), text);
        EXPECT_EQ(parsed.header.checksum, blob.header.checksum);
        EXPECT_EQ(mcuChecksum(parsed), mcuChecksum(blob));
        McuEngine engine;
        EXPECT_TRUE(engine.applyUpdate(parsed, &error)) << error;
    }
}

TEST(Mcu, TextFormatRejectsMalformedInput)
{
    McuBlob parsed;
    std::string error;
    EXPECT_FALSE(mcuBlobFromText("not-a-blob v9\n", parsed, &error));
    EXPECT_FALSE(error.empty());

    std::string text = mcuBlobToText(instrumentationBlob());
    // Corrupt the entry's opcode index beyond NumOpcodes.
    const std::string needle = "entry ";
    const std::size_t pos = text.find(needle);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, needle.size() + 2, "entry 250");
    EXPECT_FALSE(mcuBlobFromText(text, parsed, &error));
}

} // namespace
} // namespace csd
