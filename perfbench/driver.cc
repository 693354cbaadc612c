/**
 * @file
 * In-process workload driver of the repository benchmark.
 *
 * Runs one of three workloads -- crypto-detailed (the Fig. 8 grid),
 * spec-devect (the Figs. 12-16 grid) or attack-cacheonly (Figs. 7a/7b)
 * -- serially on the calling thread, in passes of "cells" until the
 * requested time is spent. A cell is one figure datapoint: it builds its
 * workload programs and fresh Simulations (set-up), runs them (the timed
 * region) and checks every architectural output against the reference
 * implementations. All timing is taken from outside the simulator, at
 * the boundaries of calls into its public API.
 *
 *   perfbench_driver --workload W --seed N --seconds S --trace 0|1
 *                    --out PATH
 *
 * writes PATH (pass timings, check failures, spans) and, per pass,
 * PATH.pass<k> (one record per simulated run: its stats dump plus the
 * host-side counters read from public getters). run.py turns those into
 * metrics; this program prints nothing on success.
 *
 * With --trace 1 every other pass is traced: each call into a layer is
 * recorded as a span (name, start, end, parent, cell id) kept in memory
 * and written out at exit. Untraced passes record nothing.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.hh"
#include "csd/csd.hh"
#include "obs/manifest.hh"
#include "power/gating.hh"
#include "sec/aes_attack.hh"
#include "sec/observation_ledger.hh"
#include "sec/rsa_attack.hh"
#include "sec/victim.hh"
#include "sim/fastpath.hh"
#include "sim/simulation.hh"
#include "verify/leak_prover.hh"
#include "workloads/aes.hh"
#include "workloads/blowfish.hh"
#include "workloads/rijndael.hh"
#include "workloads/rsa.hh"
#include "workloads/spec.hh"

extern char **environ;

namespace
{

using namespace csd;
using Clock = std::chrono::steady_clock;

const char *
sanitizerName()
{
#if defined(__SANITIZE_ADDRESS__)
    return "address";
#elif defined(__SANITIZE_THREAD__)
    return "thread";
#else
    return "none";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

/**
 * Peak resident set of this process image in KiB (VmHWM), or -1. Not
 * getrusage(): Linux carries the parent's high-water mark into a child's
 * ru_maxrss across exec, so that would read the launching runner's.
 */
long
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    return -1;
}

// --- spans and per-cell accounting ------------------------------------------

struct Span
{
    const char *name;
    double start;
    double end;
    int parent;  //!< index into the span list, -1 for a root
    int cell;    //!< cell id shared by the spans of one cell execution
};

/**
 * Times one cell execution: set-up calls and untimed bookkeeping are
 * subtracted from the cell's elapsed time, the rest is the timed
 * region. When tracing, every call wrapped here becomes a span.
 */
class Recorder
{
  public:
    explicit Recorder(Clock::time_point origin) : origin_(origin) {}

    /** Start a cell execution; @p traced selects span recording. */
    void
    beginCell(const char *name, int cell_id, bool traced)
    {
        traced_ = traced;
        cellId_ = cell_id;
        setup_ = 0;
        untimed_ = 0;
        cellStart_ = now();
        open(name);
    }

    /** End the cell; returns {set-up seconds, timed-region seconds}. */
    std::pair<double, double>
    endCell()
    {
        close();
        const double total = now() - cellStart_;
        return {setup_, total - setup_ - untimed_};
    }

    /** A set-up call (program build, proof, construction). */
    template <typename Fn>
    decltype(auto)
    setup(const char *span, Fn &&fn)
    {
        const double t0 = now();
        open(span);
        struct Done
        {
            Recorder &r;
            double t0;
            ~Done()
            {
                r.close();
                r.setup_ += r.now() - t0;
            }
        } done{*this, t0};
        return fn();
    }

    /** A call inside the timed region (simulation, attack). */
    template <typename Fn>
    decltype(auto)
    call(const char *span, Fn &&fn)
    {
        open(span);
        struct Done
        {
            Recorder &r;
            ~Done() { r.close(); }
        } done{*this};
        return fn();
    }

    /** Benchmark bookkeeping excluded from both set-up and timed region. */
    template <typename Fn>
    void
    untimed(Fn &&fn)
    {
        const double t0 = now();
        fn();
        untimed_ += now() - t0;
    }

    const std::vector<Span> &spans() const { return spans_; }

    double
    now() const
    {
        return std::chrono::duration<double>(Clock::now() - origin_).count();
    }

  private:
    void
    open(const char *name)
    {
        if (!traced_)
            return;
        const int parent = stack_.empty() ? -1 : stack_.back();
        stack_.push_back(static_cast<int>(spans_.size()));
        spans_.push_back({name, now(), 0.0, parent, cellId_});
    }

    void
    close()
    {
        if (!traced_)
            return;
        spans_[static_cast<std::size_t>(stack_.back())].end = now();
        stack_.pop_back();
    }

    Clock::time_point origin_;
    bool traced_ = false;
    int cellId_ = -1;
    double cellStart_ = 0;
    double setup_ = 0;
    double untimed_ = 0;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** Per-run records of one pass (stats dump + getter counts). */
class PassRecords
{
  public:
    explicit PassRecords(const std::string &path) : os_(path)
    {
        if (!os_) {
            std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                         path.c_str());
            std::exit(2);
        }
        os_ << "[";
    }

    ~PassRecords() { os_ << "\n]\n"; }

    PassRecords(const PassRecords &) = delete;
    PassRecords &operator=(const PassRecords &) = delete;

    using Counts = std::vector<std::pair<std::string, double>>;

    /** One simulated run: @p sim's stats dump plus @p counts. */
    void
    add(const std::string &cell, const std::string &run,
        const Simulation &sim, Counts counts)
    {
        const FlowCache &fc = sim.flowCache();
        const FastPath::Counters &sb = sim.fastPath().counters();
        counts.insert(counts.end(), {
            {"cycles", static_cast<double>(sim.cycles())},
            {"instructions", static_cast<double>(sim.instructions())},
            {"uops_simulated", static_cast<double>(sim.uopsSimulated())},
            {"flow_cache.hits", static_cast<double>(fc.hits)},
            {"flow_cache.misses", static_cast<double>(fc.misses)},
            {"flow_cache.invalidations",
             static_cast<double>(fc.invalidations + fc.ctx_invalidations)},
            {"flow_cache.bypasses", static_cast<double>(fc.bypasses)},
            {"sb.built", static_cast<double>(sb.built)},
            {"sb.entries", static_cast<double>(sb.entries)},
            {"sb.invalidated", static_cast<double>(sb.invalidated)},
            {"sb.uops_retired", static_cast<double>(sb.uopsRetired)},
        });
        for (unsigned i = 0; i < numSbExits; ++i)
            counts.emplace_back(
                std::string("sb.exit.") + sbExitName(static_cast<SbExit>(i)),
                static_cast<double>(sb.exits[i]));
        if (const CpiStack *cpi = sim.cpiStack()) {
            for (unsigned i = 0; i < numCpiBuckets; ++i)
                counts.emplace_back(
                    std::string("cpi.") +
                        cpiBucketName(static_cast<CpiBucket>(i)),
                    static_cast<double>(cpi->buckets()[i]));
        }

        os_ << (first_ ? "\n" : ",\n") << "{\"cell\": " << jsonString(cell)
            << ", \"run\": " << jsonString(run) << ", \"counts\": {";
        first_ = false;
        for (std::size_t i = 0; i < counts.size(); ++i)
            os_ << (i ? ", " : "") << jsonString(counts[i].first) << ": "
                << jsonNumber(counts[i].second);
        os_ << "}, \"stats\": ";
        sim.dumpStatsJson(os_);
        os_ << "}";
    }

  private:
    std::ofstream os_;
    bool first_ = true;
};

/** Outcome checks of one cell execution. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok && failures_.size() < 16)
            failures_.push_back(what);
        failed_ = failed_ || !ok;
    }

    bool failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    bool failed_ = false;
    std::vector<std::string> failures_;
};

/** Append @p group's counters @p names to @p counts as "<prefix>.<name>". */
void
addStatCounts(PassRecords::Counts &counts, const StatGroup &group,
              const std::string &prefix,
              std::initializer_list<const char *> names)
{
    for (const char *name : names)
        counts.emplace_back(prefix + "." + name,
                            static_cast<double>(group.counterValue(name)));
}

void
addCsdCounts(PassRecords::Counts &counts, ContextSensitiveDecoder &csd)
{
    addStatCounts(counts, csd.stats(), "csd",
                  {"stealth_triggers", "watchdog_fires"});
}

// --- cells ------------------------------------------------------------------

/** One figure datapoint: set-up, timed run, then untimed reporting. */
class Cell
{
  public:
    virtual ~Cell() = default;
    virtual void setup(Recorder &rec) = 0;
    virtual void run(Recorder &rec, Checks &checks) = 0;
    virtual void report(PassRecords &records) = 0;
};

struct CellSpec
{
    std::string name;
    std::function<std::unique_ptr<Cell>()> make;
};

/** Stateless seed mixer so each cell draws from its own stream. */
std::uint64_t
mix(std::uint64_t seed, std::uint64_t salt)
{
    std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::array<std::uint8_t, 16>
randomKey16(Random &rng)
{
    std::array<std::uint8_t, 16> key{};
    for (std::uint8_t &b : key)
        b = static_cast<std::uint8_t>(rng.next32());
    return key;
}

/** RSA operands below the fixed modulus, exponent with its top bit set. */
struct RsaOperands
{
    RsaReference::Num base;
    RsaReference::Num modulus;
    std::uint64_t exponent = 0;
    unsigned bits = 0;
};

/**
 * @p ones of @p bits (< 64) exponent bits set, the top one included, or
 * uniformly random low bits when @p ones is 0.
 */
RsaOperands
randomRsa(Random &rng, unsigned bits, unsigned ones = 0)
{
    RsaOperands op;
    op.modulus = {0xc0000001u, 0xd0000001u};
    op.base = {rng.next32() % op.modulus[0], rng.next32() % op.modulus[1]};
    op.bits = bits;
    op.exponent = 1ull << (bits - 1);
    if (ones == 0) {
        op.exponent |= rng.next64() & ((1ull << (bits - 1)) - 1);
        return op;
    }
    for (unsigned set = 1; set < ones;) {
        const std::uint64_t bit = 1ull << (rng.next32() % (bits - 1));
        if (!(op.exponent & bit)) {
            op.exponent |= bit;
            ++set;
        }
    }
    return op;
}

// crypto-detailed ------------------------------------------------------------

enum class Cipher { Aes, Rsa, Blowfish, Rijndael };

/**
 * One Fig. 8 datapoint: a crypto case under {NoOpt, Opt} front ends x
 * {baseline, stealth}, in detailed mode with the CPI stack on. Every
 * invocation's output is checked against the reference cipher.
 */
class CryptoCell : public Cell
{
  public:
    CryptoCell(std::string name, Cipher cipher, bool decrypt,
               std::uint64_t seed)
        : name_(std::move(name)), cipher_(cipher), decrypt_(decrypt),
          seed_(seed)
    {
    }

    void
    setup(Recorder &rec) override
    {
        rec.setup("workloads.build", [&] { build(); });
        FrontEndParams noopt;
        noopt.uopCacheEnabled = false;
        noopt.microFusion = false;
        noopt.macroFusion = false;
        noopt.lsdEnabled = false;
        const FrontEndParams opt;
        rec.setup("sim.construct", [&] {
            for (const bool is_opt : {false, true})
                for (const bool stealth : {false, true})
                    configs_.push_back(
                        makeConfig(is_opt ? opt : noopt, is_opt, stealth));
        });
    }

    void
    run(Recorder &rec, Checks &checks) override
    {
        for (std::unique_ptr<Config> &cfg : configs_) {
            Simulation &sim = *cfg->sim;
            Random inputs(mix(seed_, cfg->stealth));
            for (unsigned i = 0; i < invocations_; ++i) {
                newInput(sim.state().mem, inputs);
                sim.restart();
                rec.call("sim.run", [&] { sim.runToHalt(); });
                ++cfg->calls;
                checks.expect(outputMatches(sim.state().mem),
                              name_ + "/" + cfg->label +
                                  ": output differs from the reference at "
                                  "invocation " + std::to_string(i));
            }
            checks.expect(sim.cpiStack()->totalBucketCycles() ==
                              sim.cycles(),
                          name_ + "/" + cfg->label +
                              ": CPI buckets do not sum to cycles()");
        }
    }

    void
    report(PassRecords &records) override
    {
        for (std::unique_ptr<Config> &cfg : configs_) {
            PassRecords::Counts counts = {
                {"calls", static_cast<double>(cfg->calls)}};
            if (cfg->stealth) {
                addCsdCounts(counts, cfg->csd);
                addStatCounts(counts, cfg->taint.stats(), "dift",
                              {"tainted_loads", "tainted_branches",
                               "propagations"});
            }
            records.add(name_, cfg->label, *cfg->sim, std::move(counts));
        }
    }

  private:
    struct Config
    {
        std::string label;
        bool stealth = false;
        std::unique_ptr<Simulation> sim;
        MsrFile msrs;
        TaintTracker taint;
        ContextSensitiveDecoder csd{msrs, &taint};
        std::uint64_t calls = 0;
    };

    void
    build()
    {
        Random keys(mix(seed_, 0x6b6579));
        switch (cipher_) {
          case Cipher::Aes:
          case Cipher::Rijndael: {
            const std::array<std::uint8_t, 16> key = randomKey16(keys);
            if (cipher_ == Cipher::Aes) {
                aes_ = AesWorkload::build(key, decrypt_);
                program_ = &aes_.program;
                decoyD_ = aes_.tTableRange;
                taintSources_ = {aes_.keyRange};
            } else {
                rijndael_ = RijndaelWorkload::build(key, decrypt_);
                program_ = &rijndael_.program;
                decoyD_ = rijndael_.tTableRange;
                taintSources_ = {rijndael_.keyRange};
            }
            roundKeys_ = decrypt_ ? AesReference::invExpandKey(key)
                                  : AesReference::expandKey(key);
            invocations_ = 300;
            break;
          }
          case Cipher::Blowfish: {
            std::vector<std::uint8_t> key(8);
            for (std::uint8_t &b : key)
                b = static_cast<std::uint8_t>(keys.next32());
            blowfish_ = BlowfishWorkload::build(key, decrypt_);
            program_ = &blowfish_.program;
            decoyD_ = blowfish_.sboxRange;
            taintSources_ = {blowfish_.keyRange};
            schedule_ = BlowfishReference::expandKey(key);
            invocations_ = 900;  // cheap blocks: more per run
            break;
          }
          case Cipher::Rsa: {
            const RsaOperands op = randomRsa(keys, decrypt_ ? 20 : 17);
            rsa_ = RsaWorkload::build(op.base, op.modulus, op.exponent,
                                      op.bits);
            program_ = &rsa_.program;
            decoyI_ = rsa_.multiplyRange;
            taintSources_ = {rsa_.exponentRange, rsa_.resultRange};
            rsaExpected_ = RsaReference::modexp(op.base, op.modulus,
                                                op.exponent, op.bits);
            invocations_ = 2;
            break;
          }
        }
    }

    std::unique_ptr<Config>
    makeConfig(const FrontEndParams &frontend, bool is_opt, bool stealth)
    {
        auto cfg = std::make_unique<Config>();
        cfg->label = std::string(is_opt ? "opt" : "noopt") + "." +
                     (stealth ? "stealth" : "base");
        cfg->stealth = stealth;
        SimParams params;
        params.mode = SimMode::Detailed;
        params.frontend = frontend;
        if (stealth)
            params.mem.extraL2Latency = 4;  // hardware DIFT tag check
        cfg->sim = std::make_unique<Simulation>(*program_, params);
        cfg->sim->enableCpiStack();
        if (stealth) {
            for (const AddrRange &source : taintSources_)
                cfg->taint.addTaintSource(source);
            cfg->msrs.setWatchdogPeriod(1000);
            if (decoyD_.valid())
                cfg->msrs.setDecoyDRange(0, decoyD_);
            if (decoyI_.valid())
                cfg->msrs.setDecoyIRange(0, decoyI_);
            cfg->msrs.setControl(ctrlStealthEnable | ctrlDiftTrigger);
            cfg->sim->setTaintTracker(&cfg->taint);
            cfg->sim->setCsd(&cfg->csd);
        }
        return cfg;
    }

    /** Write a fresh input block and remember what it must produce. */
    void
    newInput(SparseMemory &mem, Random &rng)
    {
        switch (cipher_) {
          case Cipher::Aes:
          case Cipher::Rijndael: {
            AesReference::Block in{};
            for (std::uint8_t &b : in)
                b = static_cast<std::uint8_t>(rng.next32());
            if (cipher_ == Cipher::Aes)
                aes_.setInput(mem, in);
            else
                rijndael_.setInput(mem, in);
            aesExpected_ = decrypt_ ? AesReference::decrypt(roundKeys_, in)
                                    : AesReference::encrypt(roundKeys_, in);
            break;
          }
          case Cipher::Blowfish: {
            const std::uint32_t l = rng.next32();
            const std::uint32_t r = rng.next32();
            blowfish_.setInput(mem, l, r);
            blowfishExpected_ =
                decrypt_ ? BlowfishReference::decrypt(schedule_, l, r)
                         : BlowfishReference::encrypt(schedule_, l, r);
            break;
          }
          case Cipher::Rsa:
            break;  // fixed operands, baked into the program
        }
    }

    bool
    outputMatches(const SparseMemory &mem) const
    {
        switch (cipher_) {
          case Cipher::Aes:
            return aes_.output(mem) == aesExpected_;
          case Cipher::Rijndael:
            return rijndael_.output(mem) == aesExpected_;
          case Cipher::Blowfish:
            return blowfish_.output(mem) == blowfishExpected_;
          case Cipher::Rsa:
            return RsaReference::compare(rsa_.result(mem), rsaExpected_) == 0;
        }
        return false;
    }

    std::string name_;
    Cipher cipher_;
    bool decrypt_;
    std::uint64_t seed_;
    unsigned invocations_ = 0;

    // Declared before configs_: the simulations reference the program.
    AesWorkload aes_;
    RijndaelWorkload rijndael_;
    BlowfishWorkload blowfish_;
    RsaWorkload rsa_;
    const Program *program_ = nullptr;
    AddrRange decoyD_;
    AddrRange decoyI_;
    std::vector<AddrRange> taintSources_;
    AesReference::RoundKeys roundKeys_{};
    AesReference::Block aesExpected_{};
    BlowfishReference::Schedule schedule_;
    std::pair<std::uint32_t, std::uint32_t> blowfishExpected_;
    RsaReference::Num rsaExpected_;
    std::vector<std::unique_ptr<Config>> configs_;
};

std::vector<CellSpec>
cryptoCells(std::uint64_t seed)
{
    struct Case
    {
        const char *name;
        Cipher cipher;
        bool decrypt;
    };
    static const Case cases[] = {
        {"aes.enc", Cipher::Aes, false},
        {"aes.dec", Cipher::Aes, true},
        {"rsa.enc", Cipher::Rsa, false},
        {"rsa.dec", Cipher::Rsa, true},
        {"blowfish.enc", Cipher::Blowfish, false},
        {"blowfish.dec", Cipher::Blowfish, true},
        {"rijndael.enc", Cipher::Rijndael, false},
        {"rijndael.dec", Cipher::Rijndael, true},
    };
    std::vector<CellSpec> cells;
    std::uint64_t salt = 0;
    for (const Case &c : cases) {
        const std::uint64_t cell_seed = mix(seed, ++salt);
        cells.push_back({c.name, [c, cell_seed] {
                             return std::make_unique<CryptoCell>(
                                 c.name, c.cipher, c.decrypt, cell_seed);
                         }});
    }
    return cells;
}

// spec-devect ----------------------------------------------------------------

/**
 * One SPEC preset under the three VPU policies in detailed mode with a
 * PowerGateController (the Figs. 12-16 cells). The program is identical
 * across policies, so committed instructions must be too.
 */
class SpecCell : public Cell
{
  public:
    SpecCell(const SpecPreset &preset, std::uint64_t seed)
        : preset_(preset), seed_(seed)
    {
    }

    void
    setup(Recorder &rec) override
    {
        // runSpecPolicy()'s sizing rule at half its 400k-instruction
        // target, so a run holds enough passes for a steady wall_s.
        const std::uint64_t per_pair =
            preset_.scalarPhaseLen + preset_.vectorPhaseLen + 1;
        const auto pairs = static_cast<unsigned>(
            std::max<std::uint64_t>(3, 200000 / per_pair));
        rec.setup("workloads.build", [&] {
            workload_ = SpecWorkload::build(preset_, pairs, seed_);
        });
        rec.setup("sim.construct", [&] {
            for (const GatingPolicy policy :
                 {GatingPolicy::AlwaysOn, GatingPolicy::ConventionalPG,
                  GatingPolicy::CsdDevect})
                runs_.push_back(std::make_unique<PolicyRun>(
                    workload_.program, policy, energy_));
        });
    }

    void
    run(Recorder &rec, Checks &checks) override
    {
        for (std::unique_ptr<PolicyRun> &r : runs_) {
            rec.call("sim.run", [&] { r->sim.runToHalt(); });
            r->controller.finalize(r->sim.cycles());
            checks.expect(r->sim.cpiStack()->totalBucketCycles() ==
                              r->sim.cycles(),
                          preset_.name + "/" + r->label +
                              ": CPI buckets do not sum to cycles()");
            checks.expect(r->sim.instructions() ==
                              runs_.front()->sim.instructions(),
                          preset_.name + "/" + r->label +
                              ": committed instructions differ from " +
                              runs_.front()->label);
        }
    }

    void
    report(PassRecords &records) override
    {
        for (std::unique_ptr<PolicyRun> &r : runs_) {
            const PowerGateController &c = r->controller;
            records.add(
                preset_.name, r->label, r->sim,
                {{"calls", 1.0},
                 {"power.gated_cycles", static_cast<double>(c.gatedCycles())},
                 {"power.total_cycles",
                  static_cast<double>(c.gatedCycles() + c.wakingCycles() +
                                      c.onCycles())},
                 {"power.gate_events", static_cast<double>(c.gateEvents())},
                 {"power.energy_nj", r->sim.energy().total()}});
        }
    }

  private:
    struct PolicyRun
    {
        PolicyRun(const Program &prog, GatingPolicy policy,
                  const EnergyParams &energy)
            : label(policy == GatingPolicy::AlwaysOn         ? "always_on"
                    : policy == GatingPolicy::ConventionalPG ? "conv_pg"
                                                             : "csd_devect"),
              sim(prog, detailed(energy)), energyModel(energy),
              controller(gating(policy), energyModel), csd(msrs)
        {
            sim.enableCpiStack();
            sim.setPowerController(&controller);
            if (policy == GatingPolicy::CsdDevect)
                sim.setCsd(&csd);
        }

        static SimParams
        detailed(const EnergyParams &energy)
        {
            SimParams params;
            params.mode = SimMode::Detailed;
            params.energy = energy;
            return params;
        }

        static GatingParams
        gating(GatingPolicy policy)
        {
            GatingParams params;
            params.policy = policy;
            return params;
        }

        std::string label;
        Simulation sim;
        EnergyModel energyModel;
        PowerGateController controller;
        MsrFile msrs;
        ContextSensitiveDecoder csd;
    };

    SpecPreset preset_;
    std::uint64_t seed_;
    EnergyParams energy_;
    SpecWorkload workload_;  // before runs_: the simulations reference it
    std::vector<std::unique_ptr<PolicyRun>> runs_;
};

std::vector<CellSpec>
specCells(std::uint64_t seed)
{
    std::vector<CellSpec> cells;
    for (const SpecPreset &preset : specPresets())
        cells.push_back({preset.name, [preset, seed] {
                             return std::make_unique<SpecCell>(preset, seed);
                         }});
    return cells;
}

// attack-cacheonly -----------------------------------------------------------

const SiteMeasure *
findSite(const std::vector<SiteMeasure> &sites, const std::string &name)
{
    for (const SiteMeasure &sm : sites)
        if (sm.site == name)
            return &sm;
    return nullptr;
}

/** An attack variant: a cache-only Victim with the channel monitor armed. */
struct Variant
{
    Variant(const Program &prog, const DefenseConfig &defense)
        : victim(prog, defense), ledger(victim.armChannelMonitor())
    {
    }

    Victim victim;
    ObservationLedger ledger;
};

PassRecords::Counts
variantCounts(Variant &v, double calls, const std::string &site)
{
    const std::vector<SiteMeasure> sites = v.ledger.siteMeasures();
    const SiteMeasure *sm = findSite(sites, site);
    PassRecords::Counts counts = {
        {"calls", calls},
        {"sec.probes", static_cast<double>(v.ledger.totalObservations())},
        {"sec.mi_bits_per_obs", sm ? sm->miBits : 0.0},
    };
    if (ContextSensitiveDecoder *csd = v.victim.csd())
        addCsdCounts(counts, *csd);
    return counts;
}

/**
 * Fig. 7a: PRIME+PROBE on T-table AES, undefended and defended, with
 * the static leak proof in set-up. Undefended must recover 64 key bits,
 * defended 0 with a measured MI of exactly 0.
 */
class AesAttackCell : public Cell
{
  public:
    explicit AesAttackCell(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Recorder &rec) override
    {
        rec.setup("workloads.build", [&] {
            Random keys(mix(seed_, 0x6b6579));
            key_ = randomKey16(keys);
            workload_ = AesWorkload::build(key_);
        });
        rec.setup("verify.prove", [&] {
            VerifyOptions options;
            options.taintSources = {workload_.keyRange};
            DefenseModel model;
            model.enabled = true;
            model.decoyDRange = workload_.tTableRange;
            model.taintSources = {workload_.keyRange};
            proof_ = proveLeaks(workload_.program, options, model, {});
        });
        rec.setup("sim.construct", [&] {
            for (const bool defended : {false, true}) {
                DefenseConfig defense;
                defense.enabled = defended;
                defense.decoyDRange = workload_.tTableRange;
                defense.taintSources = {workload_.keyRange};
                defense.watchdogPeriod = 1000;
                variants_.push_back(
                    std::make_unique<Variant>(workload_.program, defense));
            }
        });
    }

    void
    run(Recorder &rec, Checks &checks) override
    {
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            const bool defended = i == 1;
            AesAttackConfig config;
            config.flushReload = false;
            config.maxSamplesPerCandidate = defended ? 40 : 150;
            config.seed = seed_;
            config.ledger = &variants_[i]->ledger;
            results_[i] = rec.call("sec.attack", [&] {
                return runAesAttack(variants_[i]->victim, workload_, key_,
                                    config);
            });
        }
        checks.expect(results_[0].keyBitsRecovered == 64,
                      "aes.primeprobe: undefended attack recovered " +
                          std::to_string(results_[0].keyBitsRecovered) +
                          " key bits, expected 64");
        checks.expect(results_[1].keyBitsRecovered == 0,
                      "aes.primeprobe: defended attack recovered " +
                          std::to_string(results_[1].keyBitsRecovered) +
                          " key bits, expected 0");
        const std::vector<SiteMeasure> sites =
            variants_[1]->ledger.siteMeasures();
        const SiteMeasure *t0 = findSite(sites, "t0");
        checks.expect(t0 && t0->miBits == 0.0,
                      "aes.primeprobe: defended ledger MI is not exactly 0");
        checks.expect(proof_.allClosed(),
                      "aes.primeprobe: static proof leaves a site open");
    }

    void
    report(PassRecords &records) override
    {
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            PassRecords::Counts counts = variantCounts(
                *variants_[i], static_cast<double>(results_[i].encryptions),
                "t0");
            counts.emplace_back(
                "sec.key_bits_recovered",
                static_cast<double>(results_[i].keyBitsRecovered));
            records.add("aes.primeprobe", i ? "defended" : "undefended",
                        variants_[i]->victim.sim(), std::move(counts));
        }
    }

  private:
    std::uint64_t seed_;
    std::array<std::uint8_t, 16> key_{};
    AesWorkload workload_;  // before variants_: the victims reference it
    LeakProof proof_;
    std::vector<std::unique_ptr<Variant>> variants_;
    std::array<AesAttackResult, 2> results_{};
};

/**
 * Fig. 7b: FLUSH+RELOAD on square-and-multiply RSA, undefended and
 * defended, the victim advanced in 400-instruction slices between
 * probes. Undefended must read the exponent exactly; defended must read
 * it worse than the fig. 7b harness's 0.8 accuracy gate.
 */
class RsaAttackCell : public Cell
{
  public:
    explicit RsaAttackCell(std::uint64_t seed) : seed_(seed) {}

    void
    setup(Recorder &rec) override
    {
        rec.setup("workloads.build", [&] {
            // Defended, the attacker reads every probe as a multiply,
            // so its accuracy is the exponent's share of 1 bits. Fix
            // that share at the fig. 7b exponent's (10 of 16 bits) so
            // the < 0.8 gate stays meaningful on every seed.
            Random keys(mix(seed_, 0x727361));
            const RsaOperands op = randomRsa(keys, 16, 10);
            workload_ = RsaWorkload::build(op.base, op.modulus, op.exponent,
                                           op.bits);
        });
        rec.setup("verify.prove", [&] {
            VerifyOptions options;
            options.taintSources = {workload_.exponentRange};
            DefenseModel model;
            model.enabled = true;
            model.decoyIRange = workload_.multiplyRange;
            model.taintSources = {workload_.exponentRange,
                                  workload_.resultRange};
            ProveOptions prove;
            prove.keyLoopIterations = workload_.expBits;
            proof_ = proveLeaks(workload_.program, options, model, prove);
        });
        rec.setup("sim.construct", [&] {
            for (const bool defended : {false, true}) {
                DefenseConfig defense;
                defense.enabled = defended;
                defense.decoyIRange = workload_.multiplyRange;
                defense.taintSources = {workload_.exponentRange,
                                        workload_.resultRange};
                defense.watchdogPeriod = 300;
                variants_.push_back(
                    std::make_unique<Variant>(workload_.program, defense));
            }
        });
    }

    void
    run(Recorder &rec, Checks &checks) override
    {
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            RsaAttackConfig config;
            config.flushReload = true;
            config.ledger = &variants_[i]->ledger;
            results_[i] = rec.call("sec.attack", [&] {
                return runRsaAttack(variants_[i]->victim, workload_, config);
            });
        }
        checks.expect(results_[0].accuracy == 1.0,
                      "rsa.flushreload: undefended accuracy " +
                          std::to_string(results_[0].accuracy) +
                          ", expected 1.0");
        checks.expect(results_[1].accuracy < 0.8,
                      "rsa.flushreload: defended accuracy " +
                          std::to_string(results_[1].accuracy) +
                          ", expected < 0.8");
        checks.expect(proof_.allClosed(),
                      "rsa.flushreload: static proof leaves a site open");
    }

    void
    report(PassRecords &records) override
    {
        for (std::size_t i = 0; i < variants_.size(); ++i) {
            PassRecords::Counts counts = variantCounts(
                *variants_[i],
                static_cast<double>(results_[i].timeline.size()),
                "multiply");
            counts.emplace_back("sec.rsa_accuracy", results_[i].accuracy);
            records.add("rsa.flushreload", i ? "defended" : "undefended",
                        variants_[i]->victim.sim(), std::move(counts));
        }
    }

  private:
    std::uint64_t seed_;
    RsaWorkload workload_;  // before variants_: the victims reference it
    LeakProof proof_;
    std::vector<std::unique_ptr<Variant>> variants_;
    std::array<RsaAttackResult, 2> results_{};
};

std::vector<CellSpec>
attackCells(std::uint64_t seed)
{
    return {
        {"aes.primeprobe",
         [seed] { return std::make_unique<AesAttackCell>(seed); }},
        {"rsa.flushreload",
         [seed] { return std::make_unique<RsaAttackCell>(seed); }},
    };
}

// --- driver -----------------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string out;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "crypto-detailed|spec-devect|attack-cacheonly --seed N "
                 "--seconds S --trace 0|1 --out PATH\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end)
                usage("--seed takes a non-negative integer");
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end || !(o.seconds > 0))
                usage("--seconds takes a positive number");
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (arg == "--out") {
            o.out = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (o.out.empty())
        usage("--out is required");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    // Every CSD_* knob changes what or how the simulator runs (CSD_TRACE
    // turns the superblock tier off, CSD_CPI_STACK=false enables the CPI
    // stack); run.py clears them, and a direct caller must too.
    for (char **env = environ; *env; ++env) {
        if (std::strncmp(*env, "CSD_", 4) == 0) {
            std::fprintf(stderr, "perfbench_driver: refusing to run with %s "
                                 "set\n", *env);
            return 2;
        }
    }

    std::vector<CellSpec> cells;
    if (opt.workload == "crypto-detailed")
        cells = cryptoCells(opt.seed);
    else if (opt.workload == "spec-devect")
        cells = specCells(opt.seed);
    else if (opt.workload == "attack-cacheonly")
        cells = attackCells(opt.seed);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    const Clock::time_point origin = Clock::now();
    Recorder rec(origin);

    struct Pass
    {
        bool traced = false;
        std::vector<double> setup, run;
        std::vector<int> failed;
    };
    std::vector<Pass> passes;
    std::vector<std::string> failures;
    int cell_id = 0;

    // Timed passes: at least one (two when traced, so an untraced pass
    // measures the tracing overhead), then more while starting one is
    // expected to end within half a pass of the budget.
    double last_pass = 0;
    while (passes.empty() || (opt.trace && passes.size() < 2) ||
           rec.now() + last_pass / 2 <= opt.seconds) {
        const double pass_start = rec.now();
        Pass pass;
        pass.traced = opt.trace && passes.size() % 2 == 0;
        PassRecords records(opt.out + ".pass" +
                            std::to_string(passes.size()));
        for (const CellSpec &spec : cells) {
            std::unique_ptr<Cell> cell = spec.make();
            Checks checks;
            rec.beginCell(spec.name.c_str(), cell_id++, pass.traced);
            cell->setup(rec);
            cell->run(rec, checks);
            rec.untimed([&] { cell->report(records); });
            const auto [setup_s, run_s] = rec.endCell();
            pass.setup.push_back(setup_s);
            pass.run.push_back(run_s);
            pass.failed.push_back(checks.failed() ? 1 : 0);
            for (const std::string &f : checks.failures())
                failures.push_back("pass " + std::to_string(passes.size()) +
                                   ": " + f);
        }
        passes.push_back(std::move(pass));
        last_pass = rec.now() - pass_start;
    }

    std::ofstream os(opt.out);
    os << "{\n  \"workload\": " << jsonString(opt.workload)
       << ",\n  \"seed\": " << opt.seed << ",\n  \"build\": {\"build_type\": "
       << jsonString(obs::buildType())
       << ", \"compiler\": " << jsonString(obs::compiler())
       << ", \"build_flags\": " << jsonString(obs::buildFlags())
       << ", \"sanitizer\": " << jsonString(sanitizerName())
       << "},\n  \"peak_rss_kb\": " << peakRssKb() << ",\n  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i)
        os << (i ? ", " : "") << jsonString(cells[i].name);
    auto list = [&os](const auto &values) {
        os << "[";
        for (std::size_t i = 0; i < values.size(); ++i)
            os << (i ? ", " : "") << jsonNumber(values[i]);
        os << "]";
    };
    os << "],\n  \"passes\": [";
    for (std::size_t p = 0; p < passes.size(); ++p) {
        os << (p ? ",\n    " : "\n    ") << "{\"traced\": "
           << (passes[p].traced ? "true" : "false") << ", \"setup_s\": ";
        list(passes[p].setup);
        os << ", \"run_s\": ";
        list(passes[p].run);
        os << ", \"failed\": ";
        list(passes[p].failed);
        os << "}";
    }
    os << "\n  ],\n  \"failures\": [";
    for (std::size_t i = 0; i < failures.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << jsonString(failures[i]);
    os << "],\n  \"spans\": [";
    const std::vector<Span> &spans = rec.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n    " : "\n    ") << "[" << jsonString(s.name) << ", "
           << jsonNumber(s.start) << ", " << jsonNumber(s.end) << ", "
           << s.parent << ", " << s.cell << "]";
    }
    os << "]\n}\n";
    os.close();
    if (!os) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     opt.out.c_str());
        return 2;
    }
    return 0;
}
