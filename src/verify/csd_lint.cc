/**
 * @file
 * csd-lint: the standalone static-analysis driver.
 *
 * Runs verifyProgram() over every shipped workload and (with --tables,
 * or always under `all`) the translation-consistency/micro-table
 * audit. Known-leaky crypto victims are registered with expectLeak:
 * their leak.* findings are consumed as confirmations and reported as
 * a summary line instead of failures — a victim whose leak lint comes
 * back EMPTY is itself an error (leak.expected-miss), since it means
 * the taint configuration has a hole.
 *
 * --channels additionally runs the static side-channel prover
 * (verify/leak_prover.hh) over every confirmed site: channel, cache
 * sets, leakage bound, and the verdict under the victim's canonical
 * CSD defense configuration (the same ranges the Fig. 7 benches
 * program into the simulator). For the targets with a dynamic
 * measurement harness (rsa, aes) it then runs the actual attack loop
 * with an ObservationLedger (sec/channel_measure.hh) and cross-checks
 * the empirically measured bits/observation against the static proof
 * (verify/channel_crosscheck.hh): a dynamic leak above the static
 * bound, or measurable leakage through a proved-closed defense, is an
 * Error. --inject-dynamic-defect deliberately inflates the measured
 * values so CI can verify the cross-check actually fails.
 *
 * Exit status: 0 clean, 1 findings remain, 2 usage or internal error.
 * --json FILE additionally emits the machine-readable report for CI.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "csd/csd.hh"
#include "csd/mcu_presets.hh"
#include "sec/channel_measure.hh"
#include "verify/channel_crosscheck.hh"
#include "verify/leak_prover.hh"
#include "verify/mcu_prover.hh"
#include "verify/tier_equiv.hh"
#include "verify/verify.hh"
#include "workloads/aes.hh"
#include "workloads/blowfish.hh"
#include "workloads/rijndael.hh"
#include "workloads/rsa.hh"
#include "workloads/spec.hh"

namespace csd
{
namespace
{

struct LintTarget
{
    std::string name;
    /** Builds the program, the lint options, and (for victims) the
     *  canonical defense + prover knobs for --channels. */
    std::function<Program(VerifyOptions &, DefenseConfig &,
                          ProveOptions &)>
        build;
};

constexpr unsigned rsaExponentBits = 24;

std::vector<LintTarget>
targets()
{
    std::vector<LintTarget> list;

    list.push_back({"rsa", [](VerifyOptions &opt, DefenseConfig &defense,
                              ProveOptions &prove) {
        const RsaWorkload w = RsaWorkload::build(
            {0x12345678u, 0x9abcdef0u}, {0xfffffff1u, 0xdeadbeefu},
            0xb1e55ed, rsaExponentBits);
        opt.taintSources = {w.exponentRange};
        opt.expectLeak = true;
        defense = w.defense();
        prove.keyLoopIterations = rsaExponentBits;
        return w.program;
    }});

    const auto aesTarget = [](bool decrypt) {
        return [decrypt](VerifyOptions &opt, DefenseConfig &defense,
                         ProveOptions &) {
            const AesWorkload w = AesWorkload::build(
                {0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab,
                 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c}, decrypt);
            opt.taintSources = {w.keyRange};
            opt.expectLeak = true;
            defense = w.defense();
            return w.program;
        };
    };
    list.push_back({"aes", aesTarget(/*decrypt=*/false)});
    list.push_back({"aes-dec", aesTarget(/*decrypt=*/true)});

    list.push_back({"blowfish", [](VerifyOptions &opt,
                                   DefenseConfig &defense, ProveOptions &) {
        const BlowfishWorkload w = BlowfishWorkload::build(
            {0x13, 0x37, 0xc0, 0xde, 0xfa, 0xce, 0xb0, 0x0c});
        opt.taintSources = {w.keyRange};
        opt.expectLeak = true;
        defense = w.defense();
        return w.program;
    }});

    list.push_back({"rijndael", [](VerifyOptions &opt,
                                   DefenseConfig &defense, ProveOptions &) {
        const RijndaelWorkload w = RijndaelWorkload::build(
            {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09,
             0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f});
        opt.taintSources = {w.keyRange};
        opt.expectLeak = true;
        defense = w.defense();
        return w.program;
    }});

    for (const SpecPreset &preset : specPresets()) {
        list.push_back({"spec-" + preset.name,
                        [preset](VerifyOptions &, DefenseConfig &,
                                 ProveOptions &) {
            return SpecWorkload::build(preset, /*phase_pairs=*/2).program;
        }});
    }

    return list;
}

/** The dynamic measurement harness for a target, if it has one. */
ChannelMeasurement (*measureFor(const std::string &name))(
    const ChannelMeasureOptions &)
{
    if (name == "rsa")
        return &measureRsaChannels;
    if (name == "aes")
        return &measureAesChannels;
    return nullptr;
}

/** JSON for one dynamic measurement (appended to "measured": [...]). */
std::string
measurementJson(const ChannelMeasurement &m)
{
    std::ostringstream os;
    os << "{\"target\": \"" << m.target << "\", \"records\": [";
    for (std::size_t i = 0; i < m.crossCheck.size(); ++i) {
        const MeasuredChannel &mc = m.crossCheck[i];
        os << (i ? ", " : "") << "{\"site\": \"" << mc.site
           << "\", \"channel\": \"" << channelName(mc.channel)
           << "\", \"defended\": " << (mc.defended ? "true" : "false")
           << ", \"set_granular\": "
           << (mc.setGranular ? "true" : "false")
           << ", \"measured_bits_per_observation\": "
           << mc.bitsPerObservation
           << ", \"observations\": " << mc.observations << "}";
    }
    os << "], \"total_observations\": " << m.observations << "}";
    return os.str();
}

/**
 * The EntryView --tiers runs under: the real one, or one with a
 * deliberate defect spliced in so CI can prove each tier.* check
 * actually fires (pattern of --inject-dynamic-defect). The injection
 * lives in the view, never in a real entry, so the build under test
 * stays healthy.
 */
EntryView
tierView(const std::string &defect)
{
    EntryView view = EntryView::real();
    if (defect == "handler") {
        // Route every scalar load to the Nop handler: wrong semantics
        // AND a dropped memory timing probe.
        view.handlerOf = [](const SbOp &op) {
            return op.uop->op == MicroOpcode::Load ? SbHandler::Nop
                                                   : op.handler;
        };
    } else if (defect == "energy") {
        // Skew every precomputed scalar by a representable amount.
        view.energyOf = [](const SbOp &op) { return op.energy + 0.125; };
    } else if (defect == "timing") {
        // Every load's record loses its memory access: the detailed
        // back end would charge it an ALU latency, not the cache's.
        view.timingOf = [](const SbOp &op) {
            UopTimingRec rec = op.timing;
            if (op.uop->op == MicroOpcode::Load)
                rec.mem = UopMemKind::None;
            return rec;
        };
    }
    return view;
}

/** JSON for one tier-equivalence sweep (appended to "tiers": [...]). */
std::string
tierAuditJson(const std::string &target, const char *config,
              const TierAudit &audit)
{
    std::ostringstream os;
    os << "{\"target\": \"" << target << "\", \"config\": \"" << config
       << "\", \"entries\": " << audit.entries
       << ", \"uops\": " << audit.uops << "}";
    return os.str();
}

/**
 * The McuBlobView --mcu runs under: the real one, or one with a
 * deliberate defect spliced in so CI can prove each mcu.* check
 * actually fires. Injection lives in the view, never in a blob or an
 * engine, so the build under test stays healthy (tierView pattern).
 */
McuBlobView
mcuView(const std::string &defect)
{
    McuBlobView view = McuBlobView::real();
    if (defect == "checksum") {
        view.checksumOf = [](const McuBlob &blob) {
            return mcuChecksum(blob) ^ 0xdeadbeefu;
        };
    } else if (defect == "revision") {
        view.revisionOf = [](const McuHeader &) { return 0u; };
    } else if (defect == "arch-write") {
        // The engine "installs" a uop writing an architectural GPR.
        view.installedOf = [](const UopVec &uops) {
            UopVec broken = uops;
            if (!broken.empty())
                broken.front().dst = intReg(Gpr::Rax);
            return broken;
        };
    } else if (defect == "table") {
        // Loads bind to a port-less class in the patched-table audit.
        auto real_ports = view.tables.portCountOf;
        view.tables.portCountOf = [real_ports](FuClass fu) {
            return fu == FuClass::MemLoad ? 0u : real_ports(fu);
        };
    } else if (defect == "channel") {
        // The patched translator clobbers decoy coverage: every
        // closed verdict that depended on decoys must regress.
        view.decoyCoverageOf = [](const AddrRange &) {
            return AddrRange();
        };
    }
    return view;
}

/**
 * Victim context the MCU channel non-regression check scores against:
 * the aes target's program, lint options, and canonical (Fig. 7a)
 * defense — the same configuration the --channels pass proves closed.
 */
struct McuLintContext
{
    McuChannelContext channel;  // before program: build() fills it
    Program program;

    explicit McuLintContext(const LintTarget &aes)
        : program(aes.build(channel.options, channel.defense,
                            channel.prove))
    {
        channel.program = &program;
        channel.name = aes.name;
    }
};

void
usage(const char *argv0, std::FILE *out)
{
    std::fprintf(out,
                 "usage: %s [--json FILE] [--channels] [--tables] "
                 "[--list] [TARGET...|all]\n"
                 "  --json FILE  write the findings report as JSON\n"
                 "  --channels   prove channel/leakage bounds per site\n"
                 "               and cross-check them against a dynamic\n"
                 "               attack measurement (rsa, aes)\n"
                 "  --inject-dynamic-defect\n"
                 "               inflate the dynamic measurement so the\n"
                 "               cross-check must fail (CI self-test)\n"
                 "  --tiers      prove the flow cache's resolved\n"
                 "               translations equivalent to the\n"
                 "               translator semantics (native, CSD, and\n"
                 "               devectorizing configurations per target)\n"
                 "  --inject-tier-defect KIND\n"
                 "               splice a defect (handler|energy|timing)\n"
                 "               into the prover's EntryView so the\n"
                 "               matching tier.* check must fail\n"
                 "  --mcu        prove the shipped microcode-update\n"
                 "               defense blobs admissible: integrity,\n"
                 "               architectural containment, patched-\n"
                 "               table invariants, and channel non-\n"
                 "               regression against the aes context\n"
                 "  --mcu-blob FILE\n"
                 "               also prove a text-format blob from\n"
                 "               FILE (see csd::mcuBlobToText)\n"
                 "  --inject-mcu-defect KIND\n"
                 "               splice a defect (checksum|revision|\n"
                 "               arch-write|table|channel) into the\n"
                 "               prover's McuBlobView so the matching\n"
                 "               mcu.* check must fail\n"
                 "  --tables     also audit translations + uop tables\n"
                 "  --list       print the known targets and exit\n"
                 "Default: lint every target and audit the tables.\n"
                 "Exit status: 0 clean, 1 findings, 2 usage/internal "
                 "error.\n",
                 argv0);
}

} // namespace
} // namespace csd

int
main(int argc, char **argv)
{
    using namespace csd;

    std::string jsonPath;
    bool tablesOnly = false;
    bool listOnly = false;
    bool channels = false;
    bool tiers = false;
    bool mcu = false;
    bool injectDefect = false;
    std::string tierDefect;
    std::string mcuDefect;
    std::string mcuBlobPath;
    std::vector<std::string> wanted;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            jsonPath = argv[++i];
        } else if (arg == "--tables") {
            tablesOnly = true;
        } else if (arg == "--channels") {
            channels = true;
        } else if (arg == "--tiers") {
            tiers = true;
        } else if (arg == "--inject-tier-defect" && i + 1 < argc) {
            tierDefect = argv[++i];
            if (tierDefect != "handler" && tierDefect != "energy" &&
                tierDefect != "timing") {
                std::fprintf(stderr, "csd-lint: unknown tier defect "
                             "'%s' (handler|energy|timing)\n",
                             tierDefect.c_str());
                return 2;
            }
        } else if (arg == "--mcu") {
            mcu = true;
        } else if (arg == "--mcu-blob" && i + 1 < argc) {
            mcu = true;
            mcuBlobPath = argv[++i];
        } else if (arg == "--inject-mcu-defect" && i + 1 < argc) {
            mcuDefect = argv[++i];
            if (mcuDefect != "checksum" && mcuDefect != "revision" &&
                mcuDefect != "arch-write" && mcuDefect != "table" &&
                mcuDefect != "channel") {
                std::fprintf(stderr,
                             "csd-lint: unknown mcu defect '%s' "
                             "(checksum|revision|arch-write|table|"
                             "channel)\n",
                             mcuDefect.c_str());
                return 2;
            }
        } else if (arg == "--inject-dynamic-defect") {
            injectDefect = true;
        } else if (arg == "--list") {
            listOnly = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout);
            return 0;
        } else if (arg == "all") {
            wanted.clear();
        } else if (!arg.empty() && arg[0] == '-') {
            usage(argv[0], stderr);
            return 2;
        } else {
            wanted.push_back(arg);
        }
    }

    const std::vector<LintTarget> all = targets();
    if (listOnly) {
        for (const LintTarget &target : all)
            std::printf("%s\n", target.name.c_str());
        return 0;
    }

    // Reject unknown target names up front (usage error, not "clean").
    for (const std::string &name : wanted) {
        const bool known =
            std::any_of(all.begin(), all.end(),
                        [&](const LintTarget &t) { return t.name == name; });
        if (!known) {
            std::fprintf(stderr, "csd-lint: unknown target '%s' "
                         "(--list shows the known ones)\n", name.c_str());
            return 2;
        }
    }

    VerifyReport combined;
    std::size_t confirmedLeaks = 0;
    std::string channelsJson;
    std::string measuredJson;
    std::string tiersJson;
    std::string mcuJson;

    if (!tablesOnly) {
        for (const LintTarget &target : all) {
            if (!wanted.empty() &&
                std::find(wanted.begin(), wanted.end(), target.name) ==
                    wanted.end())
                continue;

            VerifyOptions options;
            DefenseConfig defense;
            ProveOptions prove;
            const Program program = target.build(options, defense, prove);
            VerifyReport report = verifyProgram(program, options);

            if (options.expectLeak) {
                const std::size_t hits =
                    resolveExpectedLeaks(report, options, target.name);
                if (hits > 0) {
                    confirmedLeaks += hits;
                    std::printf("%-14s %zu secret-dependent site(s) "
                                "confirmed by the leak lint\n",
                                target.name.c_str(), hits);
                }
            }

            if (report.empty()) {
                std::printf("%-14s clean (%zu instructions)\n",
                            target.name.c_str(), program.size());
            } else {
                std::printf("%s", report.text().c_str());
            }
            combined.merge(std::move(report));

            if (channels && options.expectLeak) {
                const LeakProof proof =
                    proveLeaks(program, options, defense, prove);
                std::printf("%s", proof.text().c_str());
                if (!proof.allClosed()) {
                    Finding finding;
                    finding.checkId = "leak.unclosed-channel";
                    finding.severity = Severity::Error;
                    finding.message =
                        target.name + ": " +
                        std::to_string(proof.openSites) + " open / " +
                        std::to_string(proof.narrowedSites) +
                        " narrowed site(s) under the canonical defense";
                    combined.add(std::move(finding));
                }
                channelsJson += (channelsJson.empty() ? "" : ", ") +
                                proof.json(target.name);

                if (auto *measure = measureFor(target.name)) {
                    ChannelMeasureOptions mopts;
                    if (injectDefect)
                        mopts.injectBits = 0.5;
                    const ChannelMeasurement measurement = measure(mopts);
                    for (const MeasuredChannel &mc :
                         measurement.crossCheck) {
                        std::printf("%-14s measured %s \"%s\" %s: %.4f "
                                    "bit(s)/obs over %llu probe(s)\n",
                                    target.name.c_str(),
                                    channelName(mc.channel),
                                    mc.site.c_str(),
                                    mc.defended ? "defended"
                                                : "undefended",
                                    mc.bitsPerObservation,
                                    static_cast<unsigned long long>(
                                        mc.observations));
                    }
                    std::vector<Finding> disagreements =
                        crossCheckChannels(target.name, proof,
                                           measurement.crossCheck);
                    if (disagreements.empty()) {
                        std::printf("%-14s dynamic measurement agrees "
                                    "with the static proof\n",
                                    target.name.c_str());
                    }
                    for (Finding &f : disagreements)
                        combined.add(std::move(f));
                    measuredJson +=
                        (measuredJson.empty() ? "" : ", ") +
                        measurementJson(measurement);
                }
            }

            if (tiers) {
                const EntryView view = tierView(tierDefect);
                const auto sweep = [&](const char *config,
                                       Translator &translator) {
                    VerifyReport tierReport;
                    const TierAudit audit = auditProgramTiers(
                        program, translator, tierReport, view);
                    std::printf("%-14s tiers[%s]: %zu entr%s, %zu "
                                "uop(s) proved\n",
                                target.name.c_str(), config, audit.entries,
                                audit.entries == 1 ? "y" : "ies",
                                audit.uops);
                    if (!tierReport.empty())
                        std::printf("%s", tierReport.text().c_str());
                    combined.merge(std::move(tierReport));
                    tiersJson += (tiersJson.empty() ? "" : ", ") +
                                 tierAuditJson(target.name, config,
                                               audit);
                };

                // The translator configurations the simulator caches
                // flows under: the static native translation,
                // the CSD with the target's canonical defense armed,
                // and the CSD devectorizing (ctxDevect stable flows).
                NativeTranslator native;
                sweep("native", native);

                MsrFile msrs;
                TaintTracker taint;
                ContextSensitiveDecoder csd(msrs, &taint);
                csd.arm(defense);
                sweep("csd", csd);

                MsrFile devectMsrs;
                ContextSensitiveDecoder devectCsd(devectMsrs, nullptr);
                devectCsd.setDevectorize(true);
                sweep("csd-devect", devectCsd);
            }
        }
    }

    // The table audit runs for `all`/default invocations and --tables.
    if (tablesOnly || wanted.empty()) {
        VerifyReport tables = verifyTranslation();
        if (tables.empty()) {
            std::printf("%-14s all %u macro-opcodes consistent across "
                        "decode paths; tables covered\n",
                        "translation",
                        static_cast<unsigned>(MacroOpcode::NumOpcodes));
        } else {
            std::printf("%s", tables.text().c_str());
        }
        combined.merge(std::move(tables));
    }

    // The MCU admission sweep runs once per invocation: every shipped
    // defense blob (plus any --mcu-blob file) must be admitted by the
    // static prover under the aes victim context.
    if (mcu) {
        const McuLintContext ctx(*std::find_if(
            all.begin(), all.end(),
            [](const LintTarget &t) { return t.name == "aes"; }));
        McuProveOptions mopts;
        mopts.view = mcuView(mcuDefect);
        mopts.channel = &ctx.channel;

        std::vector<std::pair<std::string, McuBlob>> blobs;
        blobs.emplace_back("load-instrument",
                           mcuLoadInstrumentationPreset());
        blobs.emplace_back(
            "ct-sweep-aes",
            mcuConstantTimeSweepPreset(ctx.channel.defense.decoyDRange));
        if (!mcuBlobPath.empty()) {
            std::ifstream in(mcuBlobPath);
            if (!in) {
                std::fprintf(stderr, "csd-lint: cannot read %s\n",
                             mcuBlobPath.c_str());
                return 2;
            }
            std::stringstream text;
            text << in.rdbuf();
            McuBlob fromFile;
            std::string parseError;
            if (!mcuBlobFromText(text.str(), fromFile, &parseError)) {
                std::fprintf(stderr, "csd-lint: %s: %s\n",
                             mcuBlobPath.c_str(), parseError.c_str());
                return 2;
            }
            blobs.emplace_back(mcuBlobPath, std::move(fromFile));
        }

        for (const auto &[name, blob] : blobs) {
            VerifyReport mcuReport;
            const McuAudit audit =
                proveMcuAdmission(blob, mcuReport, mopts);
            for (const McuEntryAudit &ea : audit.entries) {
                std::printf("%-14s mcu[%s]: %s/%zu native op(s) -> %zu "
                            "uop(s), %+.2f nJ/exec, %zu swept line(s)\n",
                            name.c_str(), mnemonic(ea.target).c_str(),
                            ea.placement == McuPlacement::Replace
                                ? "replace"
                                : (ea.placement == McuPlacement::Prepend
                                       ? "prepend"
                                       : "append"),
                            ea.nativeOps, ea.installedUops,
                            ea.energyDeltaNj, ea.sweptLines);
            }
            if (audit.channelChecked) {
                std::printf("%-14s mcu channel: baseline %zu closed/"
                            "%zu narrowed/%zu open -> patched %zu "
                            "closed/%zu narrowed/%zu open\n",
                            name.c_str(), audit.baselineClosed,
                            audit.baselineNarrowed, audit.baselineOpen,
                            audit.patchedClosed, audit.patchedNarrowed,
                            audit.patchedOpen);
            }
            if (mcuReport.empty()) {
                std::printf("%-14s mcu admission proof clean\n",
                            name.c_str());
            } else {
                std::printf("%s", mcuReport.text().c_str());
            }
            combined.merge(std::move(mcuReport));
            mcuJson += (mcuJson.empty() ? "" : ", ") + audit.json(name);
        }
    }

    if (!jsonPath.empty()) {
        std::ofstream out(jsonPath);
        if (!out) {
            std::fprintf(stderr, "csd-lint: cannot write %s\n",
                         jsonPath.c_str());
            return 2;
        }
        std::string extra;
        if (channels)
            extra = "\"channels\": [" + channelsJson + "], "
                    "\"measured\": [" + measuredJson + "]";
        if (tiers)
            extra += (extra.empty() ? std::string() : std::string(", ")) +
                     "\"tiers\": [" + tiersJson + "]";
        if (mcu)
            extra += (extra.empty() ? std::string() : std::string(", ")) +
                     "\"mcu\": [" + mcuJson + "]";
        out << combined.json(extra) << "\n";
        if (!out) {
            std::fprintf(stderr, "csd-lint: write to %s failed\n",
                         jsonPath.c_str());
            return 2;
        }
    }

    std::printf("csd-lint: %zu error(s), %zu warning(s), %zu confirmed "
                "leak site(s)\n",
                combined.errorCount(), combined.warningCount(),
                confirmedLeaks);
    return combined.hasErrors() ? 1 : 0;
}
