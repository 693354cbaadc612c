#include "verify/program_verifier.hh"

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <unordered_map>
#include <vector>

namespace csd
{

namespace
{

// ---------------------------------------------------------------------
// Path walk: stack balance, reachability, return-site discovery
// ---------------------------------------------------------------------

struct Frame
{
    std::size_t retInstr;
    int depthAtCall;

    bool operator==(const Frame &other) const
    {
        return retInstr == other.retInstr &&
               depthAtCall == other.depthAtCall;
    }
};

struct WalkState
{
    std::size_t instr;
    int depth;
    std::vector<Frame> frames;
};

std::uint64_t
contextHash(std::size_t instr, const std::vector<Frame> &frames)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](std::uint64_t value) {
        hash ^= value;
        hash *= 0x100000001b3ull;
    };
    mix(instr);
    for (const Frame &frame : frames) {
        mix(frame.retInstr + 1);
        mix(static_cast<std::uint64_t>(
            static_cast<std::int64_t>(frame.depthAtCall)));
    }
    return hash;
}

class PathWalker
{
  public:
    PathWalker(Cfg &cfg, const VerifyOptions &options,
               VerifyReport &report)
        : cfg_(cfg), options_(options), report_(report),
          code_(cfg.program().code())
    {
        reachable_.assign(code_.size(), false);
    }

    void run();

  private:
    void step(WalkState state);
    void enqueue(WalkState state);
    std::size_t indexOfTarget(Addr target) const;
    void finding(const std::string &check, Severity severity, Addr pc,
                 const std::string &message);

    Cfg &cfg_;
    const VerifyOptions &options_;
    VerifyReport &report_;
    const std::vector<MacroOp> &code_;

    std::vector<bool> reachable_;
    std::unordered_map<std::uint64_t, int> seenDepth_;
    std::set<std::pair<Addr, std::string>> reported_;
    std::deque<WalkState> work_;
    std::size_t states_ = 0;
    bool budgetBlown_ = false;

    static constexpr std::size_t maxFrames = 256;
};

void
PathWalker::finding(const std::string &check, Severity severity, Addr pc,
                    const std::string &message)
{
    if (!reported_.emplace(pc, check).second)
        return;
    report_.add(check, severity, pc, cfg_.symbolAt(pc), message);
}

std::size_t
PathWalker::indexOfTarget(Addr target) const
{
    const MacroOp *hit = cfg_.program().at(target);
    if (!hit)
        return Cfg::npos;
    return static_cast<std::size_t>(hit - code_.data());
}

void
PathWalker::enqueue(WalkState state)
{
    if (budgetBlown_)
        return;
    if (state.instr >= code_.size())
        return;
    const std::uint64_t key = contextHash(state.instr, state.frames);
    auto [it, inserted] = seenDepth_.emplace(key, state.depth);
    if (!inserted) {
        if (it->second != state.depth) {
            finding("stack.imbalance", Severity::Error,
                    code_[state.instr].pc,
                    "reached with push/pop depth " +
                        std::to_string(state.depth) + " and " +
                        std::to_string(it->second) +
                        " on different paths");
        }
        return;
    }
    if (++states_ > options_.maxWalkStates) {
        budgetBlown_ = true;
        finding("cfg.state-limit", Severity::Warning, invalidAddr,
                "path walk exceeded " +
                    std::to_string(options_.maxWalkStates) +
                    " states; stack checks are incomplete");
        return;
    }
    work_.push_back(std::move(state));
}

void
PathWalker::step(WalkState state)
{
    const std::size_t i = state.instr;
    const MacroOp &op = code_[i];
    reachable_[i] = true;

    const int floor =
        state.frames.empty() ? 0 : state.frames.back().depthAtCall + 1;

    auto fallthrough = [&](int depth) {
        if (i + 1 >= code_.size()) {
            finding("cfg.fall-off-end", Severity::Error, op.pc,
                    "execution runs past the last instruction");
            return;
        }
        WalkState next{i + 1, depth, state.frames};
        enqueue(std::move(next));
    };

    switch (op.opcode) {
      case MacroOpcode::Push:
        fallthrough(state.depth + 1);
        return;
      case MacroOpcode::Pop:
        if (state.depth <= floor) {
            finding("stack.underflow", Severity::Error, op.pc,
                    state.frames.empty()
                        ? "pop with nothing pushed on this path"
                        : "pop would consume the caller's return "
                          "address (callee-relative depth 0)");
            return;
        }
        fallthrough(state.depth - 1);
        return;
      case MacroOpcode::Call: {
        const std::size_t target = indexOfTarget(op.target);
        if (target == Cfg::npos)
            return;  // cfg.dangling-target already reported
        if (state.frames.size() >= maxFrames) {
            finding("cfg.call-depth", Severity::Warning, op.pc,
                    "call nesting exceeds " + std::to_string(maxFrames) +
                        " frames (recursion?); path truncated");
            return;
        }
        WalkState next{target, state.depth + 1, state.frames};
        next.frames.push_back(Frame{i + 1, state.depth});
        enqueue(std::move(next));
        return;
      }
      case MacroOpcode::Ret: {
        if (state.frames.empty()) {
            finding("cfg.ret-without-call", Severity::Error, op.pc,
                    "ret with an empty call stack");
            return;
        }
        const Frame frame = state.frames.back();
        if (state.depth != frame.depthAtCall + 1) {
            finding("stack.imbalance", Severity::Error, op.pc,
                    "ret with callee-relative push/pop depth " +
                        std::to_string(state.depth - frame.depthAtCall -
                                       1) +
                        " (must be 0 to pop the return address)");
            return;
        }
        if (frame.retInstr < code_.size()) {
            cfg_.addEdge(cfg_.blockOf(i), cfg_.blockOf(frame.retInstr));
            WalkState next{frame.retInstr, frame.depthAtCall,
                           state.frames};
            next.frames.pop_back();
            enqueue(std::move(next));
        } else {
            finding("cfg.fall-off-end", Severity::Error, op.pc,
                    "return to a PC past the last instruction");
        }
        return;
      }
      case MacroOpcode::Jmp: {
        const std::size_t target = indexOfTarget(op.target);
        if (target != Cfg::npos)
            enqueue(WalkState{target, state.depth, state.frames});
        return;
      }
      case MacroOpcode::Jcc: {
        const std::size_t target = indexOfTarget(op.target);
        if (target != Cfg::npos)
            enqueue(WalkState{target, state.depth, state.frames});
        if (op.cond != Cond::Always)
            fallthrough(state.depth);
        return;
      }
      case MacroOpcode::JmpInd:
        // Target unknown statically; the path ends here.
        return;
      case MacroOpcode::Halt:
        if (state.depth != 0 || !state.frames.empty()) {
            finding("stack.leak", Severity::Warning, op.pc,
                    "halt with " + std::to_string(state.depth) +
                        " value(s) still on the stack" +
                        (state.frames.empty() ? ""
                                              : " inside a called "
                                                "function"));
        }
        return;
      default:
        fallthrough(state.depth);
        return;
    }
}

void
PathWalker::run()
{
    if (code_.empty())
        return;
    const MacroOp *entry_op = cfg_.program().at(cfg_.program().entry());
    if (!entry_op)
        return;  // cfg.bad-entry already reported
    enqueue(WalkState{
        static_cast<std::size_t>(entry_op - code_.data()), 0, {}});
    while (!work_.empty()) {
        WalkState state = std::move(work_.front());
        work_.pop_front();
        step(std::move(state));
    }

    // Unreachable blocks. An indirect jump hides successors from the
    // walk, so its presence demotes the finding to a note.
    bool has_ind = false;
    for (const MacroOp &op : code_)
        if (op.opcode == MacroOpcode::JmpInd)
            has_ind = true;
    for (BasicBlock &blk : cfg_.blocks()) {
        blk.reachable = reachable_[blk.first];
        if (!blk.reachable) {
            const Addr pc = code_[blk.first].pc;
            finding("cfg.unreachable",
                    has_ind ? Severity::Note : Severity::Warning, pc,
                    "block at " + hexPc(pc) + " (" +
                        std::to_string(blk.last - blk.first + 1) +
                        " instruction(s)) is unreachable from the entry");
        }
    }
}

} // namespace

void
runPathWalk(Cfg &cfg, const VerifyOptions &options, VerifyReport &report)
{
    PathWalker walker(cfg, options, report);
    walker.run();
}

// ---------------------------------------------------------------------
// Dataflow: use-before-def, constants, taint, memory regions
// ---------------------------------------------------------------------

namespace
{

/** Constant-propagation lattice value. */
struct ConstVal
{
    enum Kind : std::uint8_t { Top, Const, Bottom };
    Kind kind = Top;
    std::int64_t value = 0;

    static ConstVal constant(std::int64_t v) { return {Const, v}; }
    static ConstVal bottom() { return {Bottom, 0}; }

    bool isConst() const { return kind == Const; }

    bool
    join(const ConstVal &other)
    {
        if (other.kind == Top)
            return false;
        if (kind == Top) {
            *this = other;
            return true;
        }
        if (kind == Bottom)
            return false;
        if (other.kind == Bottom || other.value != value) {
            kind = Bottom;
            return true;
        }
        return false;
    }
};

struct GprState
{
    bool maybeUndef = true;
    bool taint = false;
    ConstVal cv;
};

struct XmmState
{
    bool maybeUndef = true;
    bool taint = false;
};

struct FlowState
{
    std::array<GprState, numGprs> gpr;
    std::array<XmmState, numXmms> xmm;
    bool flagsUndef = true;
    bool flagsTaint = false;
    std::set<Addr> taintedGranules;  //!< 8-byte granule numbers
    bool visited = false;

    /** Merge @p other in; returns true if anything widened. */
    bool
    join(const FlowState &other)
    {
        if (!other.visited)
            return false;
        if (!visited) {
            *this = other;
            return true;
        }
        bool changed = false;
        for (unsigned r = 0; r < numGprs; ++r) {
            GprState &a = gpr[r];
            const GprState &b = other.gpr[r];
            if (b.maybeUndef && !a.maybeUndef) {
                a.maybeUndef = true;
                changed = true;
            }
            if (b.taint && !a.taint) {
                a.taint = true;
                changed = true;
            }
            changed |= a.cv.join(b.cv);
        }
        for (unsigned r = 0; r < numXmms; ++r) {
            XmmState &a = xmm[r];
            const XmmState &b = other.xmm[r];
            if (b.maybeUndef && !a.maybeUndef) {
                a.maybeUndef = true;
                changed = true;
            }
            if (b.taint && !a.taint) {
                a.taint = true;
                changed = true;
            }
        }
        if (other.flagsUndef && !flagsUndef) {
            flagsUndef = true;
            changed = true;
        }
        if (other.flagsTaint && !flagsTaint) {
            flagsTaint = true;
            changed = true;
        }
        for (Addr granule : other.taintedGranules)
            changed |= taintedGranules.insert(granule).second;
        return changed;
    }
};

constexpr Addr
granuleOf(Addr addr)
{
    return addr >> 3;
}

/** Declared-memory map: where resolvable accesses may land. */
class Regions
{
  public:
    Regions(const Program &prog, const VerifyOptions &options)
    {
        for (const DataChunk &chunk : prog.data())
            if (chunk.size > 0)
                data_.push_back(chunk.range());
        for (const AddrRange &range : options.extraRegions)
            data_.push_back(range);
        if (options.stackBytes > 0) {
            data_.emplace_back(options.stackBase - options.stackBytes,
                               options.stackBase + 4096);
        }
        code_ = prog.codeRange();
    }

    bool
    inData(Addr addr, unsigned size) const
    {
        for (const AddrRange &range : data_)
            if (range.contains(addr) &&
                (size == 0 || range.contains(addr + size - 1)))
                return true;
        return false;
    }

    bool inCode(Addr addr) const
    {
        return code_.valid() && code_.contains(addr);
    }

  private:
    std::vector<AddrRange> data_;
    AddrRange code_;
};

/** Per-instruction transfer function + finding emission. */
class Dataflow
{
  public:
    Dataflow(const Cfg &cfg, const VerifyOptions &options,
             VerifyReport &report, std::vector<LeakSite> *leak_sites)
        : cfg_(cfg), options_(options), report_(report),
          leakSites_(leak_sites), code_(cfg.program().code()),
          regions_(cfg.program(), options)
    {
    }

    void run();

  private:
    FlowState entryState() const;
    void transfer(const MacroOp &op, FlowState &state, bool emit);
    void finding(const std::string &check, Severity severity, Addr pc,
                 const std::string &message);

    // -- operand helpers ------------------------------------------------
    GprState readGpr(const MacroOp &op, Gpr reg, FlowState &state,
                     bool emit);
    XmmState readXmm(const MacroOp &op, Xmm reg, FlowState &state,
                     bool emit);
    void readFlags(const MacroOp &op, const FlowState &state, bool emit,
                   bool is_branch);
    struct MemRef
    {
        bool resolved = false;    //!< full address known
        bool baseKnown = false;   //!< base+disp known, index varies
        Addr addr = 0;            //!< resolved (or base+disp) address
        bool addrTaint = false;   //!< any address register tainted
        bool valueTaint = false;  //!< loads: memory contents tainted
    };
    MemRef accessMem(const MacroOp &op, const MemOperand &mem,
                     FlowState &state, bool emit, bool is_store);

    bool memTainted(const FlowState &state, Addr addr,
                    unsigned size) const;

    void recordLeak(LeakSite site);

    const Cfg &cfg_;
    const VerifyOptions &options_;
    VerifyReport &report_;
    std::vector<LeakSite> *leakSites_;
    const std::vector<MacroOp> &code_;
    Regions regions_;
    std::set<std::pair<Addr, std::string>> reported_;
    std::set<std::pair<Addr, LeakKind>> recordedSites_;
};

void
Dataflow::recordLeak(LeakSite site)
{
    if (!leakSites_)
        return;
    if (!recordedSites_.emplace(site.pc, site.kind).second)
        return;
    leakSites_->push_back(std::move(site));
}

void
Dataflow::finding(const std::string &check, Severity severity, Addr pc,
                  const std::string &message)
{
    if (!reported_.emplace(pc, check).second)
        return;
    report_.add(check, severity, pc, cfg_.symbolAt(pc), message);
}

FlowState
Dataflow::entryState() const
{
    FlowState state;
    state.visited = true;
    GprState &rsp = state.gpr[static_cast<unsigned>(Gpr::Rsp)];
    rsp.maybeUndef = false;
    rsp.cv = ConstVal::constant(
        static_cast<std::int64_t>(options_.stackBase));
    for (Gpr reg : options_.entryDefined)
        state.gpr[static_cast<unsigned>(reg)].maybeUndef = false;
    return state;
}

bool
Dataflow::memTainted(const FlowState &state, Addr addr,
                     unsigned size) const
{
    for (const AddrRange &range : options_.taintSources)
        if (range.overlaps(AddrRange(addr, addr + std::max(1u, size))))
            return true;
    for (Addr a = granuleOf(addr); a <= granuleOf(addr + size - 1); ++a)
        if (state.taintedGranules.count(a))
            return true;
    return false;
}

GprState
Dataflow::readGpr(const MacroOp &op, Gpr reg, FlowState &state, bool emit)
{
    if (reg == Gpr::Invalid)
        return GprState{false, false, ConstVal::bottom()};
    GprState &rs = state.gpr[static_cast<unsigned>(reg)];
    if (rs.maybeUndef && emit && options_.checkUseBeforeDef) {
        finding("df.use-before-def", Severity::Error, op.pc,
                "register " + gprName(reg) +
                    " may be read before any write");
    }
    return rs;
}

XmmState
Dataflow::readXmm(const MacroOp &op, Xmm reg, FlowState &state, bool emit)
{
    if (reg == Xmm::Invalid)
        return XmmState{false, false};
    XmmState &rs = state.xmm[static_cast<unsigned>(reg)];
    if (rs.maybeUndef && emit && options_.checkVecUseBeforeDef) {
        finding("df.use-before-def", Severity::Error, op.pc,
                "vector register " + xmmName(reg) +
                    " may be read before any write");
    }
    return rs;
}

void
Dataflow::readFlags(const MacroOp &op, const FlowState &state, bool emit,
                    bool is_branch)
{
    if (!emit)
        return;
    if (state.flagsUndef && options_.checkUseBeforeDef) {
        finding("df.undef-flags", Severity::Error, op.pc,
                std::string(is_branch ? "conditional branch"
                                      : "flags-consuming op") +
                    " may read flags before any compare/ALU write");
    }
    if (is_branch && state.flagsTaint && options_.leakLint &&
        !options_.taintSources.empty()) {
        finding("leak.tainted-branch", Severity::Error, op.pc,
                "conditional branch depends on secret-tainted flags "
                "(key-dependent control flow)");
        LeakSite site;
        site.kind = LeakKind::TaintedBranch;
        site.pc = op.pc;
        site.symbol = cfg_.symbolAt(op.pc);
        site.instrIndex = static_cast<std::size_t>(&op - code_.data());
        site.targetPc = op.target;
        recordLeak(std::move(site));
    }
}

Dataflow::MemRef
Dataflow::accessMem(const MacroOp &op, const MemOperand &mem,
                    FlowState &state, bool emit, bool is_store)
{
    MemRef ref;
    ConstVal base = ConstVal::constant(0);
    ConstVal index = ConstVal::constant(0);
    if (mem.hasBase()) {
        const GprState bs = readGpr(op, mem.base, state, emit);
        ref.addrTaint |= bs.taint;
        base = bs.cv;
    }
    if (mem.hasIndex()) {
        const GprState is = readGpr(op, mem.index, state, emit);
        ref.addrTaint |= is.taint;
        index = is.cv;
    }

    const unsigned size = static_cast<unsigned>(mem.size);
    if (base.isConst() && index.isConst()) {
        ref.resolved = true;
        ref.addr = static_cast<Addr>(base.value +
                                     index.value * mem.scale + mem.disp);
    } else if (base.isConst() && !mem.hasIndex()) {
        ref.resolved = true;
        ref.addr = static_cast<Addr>(base.value + mem.disp);
    } else if (base.isConst()) {
        ref.baseKnown = true;
        ref.addr = static_cast<Addr>(base.value + mem.disp);
    }

    // Leak lint: a secret-tainted address register means the access
    // pattern (cache set / line) is key-dependent.
    if (emit && ref.addrTaint && options_.leakLint &&
        !options_.taintSources.empty()) {
        finding("leak.tainted-index", Severity::Error, op.pc,
                std::string(is_store ? "store" : "load") +
                    " address depends on a secret-tainted register "
                    "(key-dependent data access)");
        LeakSite site;
        site.kind = LeakKind::TaintedIndex;
        site.pc = op.pc;
        site.symbol = cfg_.symbolAt(op.pc);
        site.instrIndex = static_cast<std::size_t>(&op - code_.data());
        site.isStore = is_store;
        site.baseKnown = ref.resolved || ref.baseKnown;
        site.baseAddr = ref.addr;
        site.accessBytes = size;
        recordLeak(std::move(site));
    }

    if (emit && options_.checkMemRegions) {
        if (ref.resolved) {
            if (is_store && regions_.inCode(ref.addr)) {
                finding("mem.write-to-code", Severity::Error, op.pc,
                        "store to " + hexPc(ref.addr) +
                            " inside the code section");
            } else if (!regions_.inData(ref.addr, size) &&
                       !regions_.inCode(ref.addr)) {
                finding("mem.out-of-region", Severity::Error, op.pc,
                        std::string(is_store ? "store to " : "load from ") +
                            hexPc(ref.addr) +
                            " outside every declared data region, the "
                            "stack, and the code section");
            }
        } else if (ref.baseKnown) {
            // Table pattern: [table + index*scale]; require the table
            // base itself to be declared.
            if (!regions_.inData(ref.addr, 1) &&
                !regions_.inCode(ref.addr)) {
                finding("mem.out-of-region", Severity::Error, op.pc,
                        "indexed access with base " + hexPc(ref.addr) +
                            " outside every declared data region");
            }
        }
    }

    if (!is_store && ref.resolved)
        ref.valueTaint = memTainted(state, ref.addr, size);
    return ref;
}

void
Dataflow::transfer(const MacroOp &op, FlowState &state, bool emit)
{
    auto def_gpr = [&](Gpr reg, bool taint, ConstVal cv) {
        if (reg == Gpr::Invalid)
            return;
        GprState &rs = state.gpr[static_cast<unsigned>(reg)];
        rs.maybeUndef = false;
        rs.taint = taint;
        rs.cv = cv;
    };
    auto def_xmm = [&](Xmm reg, bool taint) {
        if (reg == Xmm::Invalid)
            return;
        XmmState &rs = state.xmm[static_cast<unsigned>(reg)];
        rs.maybeUndef = false;
        rs.taint = taint;
    };
    auto def_flags = [&](bool taint) {
        state.flagsUndef = false;
        state.flagsTaint = taint;
    };
    auto width_wrap = [&](std::int64_t v) {
        if (op.width == OpWidth::W32)
            return static_cast<std::int64_t>(
                static_cast<std::uint32_t>(v));
        return v;
    };

    switch (op.opcode) {
      case MacroOpcode::MovRI:
        def_gpr(op.dst, false, ConstVal::constant(op.imm));
        return;
      case MacroOpcode::MovRR: {
        const GprState src = readGpr(op, op.src1, state, emit);
        def_gpr(op.dst, src.taint, src.cv);
        return;
      }
      case MacroOpcode::Load: {
        const MemRef ref = accessMem(op, op.mem, state, emit, false);
        def_gpr(op.dst, ref.valueTaint, ConstVal::bottom());
        return;
      }
      case MacroOpcode::Store: {
        const GprState src = readGpr(op, op.src1, state, emit);
        const MemRef ref = accessMem(op, op.mem, state, emit, true);
        // No strong updates: granule taint only accumulates, so the
        // fixpoint iteration stays monotone.
        if (ref.resolved && src.taint) {
            const unsigned size = static_cast<unsigned>(op.mem.size);
            for (Addr a = granuleOf(ref.addr);
                 a <= granuleOf(ref.addr + size - 1); ++a)
                state.taintedGranules.insert(a);
        }
        return;
      }
      case MacroOpcode::StoreImm:
        accessMem(op, op.mem, state, emit, true);
        return;
      case MacroOpcode::Lea: {
        MemRef ref;
        ConstVal base = ConstVal::constant(0);
        ConstVal index = ConstVal::constant(0);
        bool taint = false;
        if (op.mem.hasBase()) {
            const GprState bs = readGpr(op, op.mem.base, state, emit);
            base = bs.cv;
            taint |= bs.taint;
        }
        if (op.mem.hasIndex()) {
            const GprState is = readGpr(op, op.mem.index, state, emit);
            index = is.cv;
            taint |= is.taint;
        }
        ConstVal cv = ConstVal::bottom();
        if (base.isConst() && index.isConst()) {
            cv = ConstVal::constant(base.value +
                                    index.value * op.mem.scale +
                                    op.mem.disp);
        }
        def_gpr(op.dst, taint, cv);
        return;
      }
      case MacroOpcode::Push:
        readGpr(op, op.src1, state, emit);
        return;
      case MacroOpcode::Pop:
        // Stack contents are not modeled; the value is defined but
        // unknown and conservatively untainted.
        def_gpr(op.dst, false, ConstVal::bottom());
        return;

      // --- scalar ALU -----------------------------------------------------
      case MacroOpcode::Add: case MacroOpcode::Adc: case MacroOpcode::Sub:
      case MacroOpcode::Sbb: case MacroOpcode::And: case MacroOpcode::Or:
      case MacroOpcode::Xor: case MacroOpcode::Shl: case MacroOpcode::Shr:
      case MacroOpcode::Sar: case MacroOpcode::Rol: case MacroOpcode::Ror:
      case MacroOpcode::Imul: {
        const GprState a = readGpr(op, op.dst, state, emit);
        const GprState b = readGpr(op, op.src1, state, emit);
        if (readsFlags(op))
            readFlags(op, state, emit, false);
        ConstVal cv = ConstVal::bottom();
        if (a.cv.isConst() && b.cv.isConst()) {
            switch (op.opcode) {
              case MacroOpcode::Add:
                cv = ConstVal::constant(
                    width_wrap(a.cv.value + b.cv.value));
                break;
              case MacroOpcode::Sub:
                cv = ConstVal::constant(
                    width_wrap(a.cv.value - b.cv.value));
                break;
              case MacroOpcode::And:
                cv = ConstVal::constant(a.cv.value & b.cv.value);
                break;
              case MacroOpcode::Or:
                cv = ConstVal::constant(a.cv.value | b.cv.value);
                break;
              case MacroOpcode::Xor:
                cv = ConstVal::constant(a.cv.value ^ b.cv.value);
                break;
              case MacroOpcode::Imul:
                cv = ConstVal::constant(
                    width_wrap(a.cv.value * b.cv.value));
                break;
              default:
                break;
            }
        }
        const bool taint = a.taint || b.taint;
        def_gpr(op.dst, taint, cv);
        if (writesFlags(op))
            def_flags(taint);
        return;
      }
      case MacroOpcode::Cmp: case MacroOpcode::Test: {
        const GprState a = readGpr(op, op.dst, state, emit);
        const GprState b = readGpr(op, op.src1, state, emit);
        def_flags(a.taint || b.taint);
        return;
      }
      case MacroOpcode::Not: case MacroOpcode::Neg: {
        const GprState a = readGpr(op, op.dst, state, emit);
        ConstVal cv = ConstVal::bottom();
        if (a.cv.isConst())
            cv = ConstVal::constant(width_wrap(
                op.opcode == MacroOpcode::Not ? ~a.cv.value
                                              : -a.cv.value));
        def_gpr(op.dst, a.taint, cv);
        if (writesFlags(op))
            def_flags(a.taint);
        return;
      }
      case MacroOpcode::AddI: case MacroOpcode::AdcI:
      case MacroOpcode::SubI: case MacroOpcode::SbbI:
      case MacroOpcode::AndI: case MacroOpcode::OrI:
      case MacroOpcode::XorI: case MacroOpcode::ShlI:
      case MacroOpcode::ShrI: case MacroOpcode::SarI:
      case MacroOpcode::RolI: case MacroOpcode::RorI: {
        const GprState a = readGpr(op, op.dst, state, emit);
        if (readsFlags(op))
            readFlags(op, state, emit, false);
        ConstVal cv = ConstVal::bottom();
        if (a.cv.isConst()) {
            const std::int64_t v = a.cv.value;
            const unsigned sh = static_cast<unsigned>(op.imm) & 63;
            switch (op.opcode) {
              case MacroOpcode::AddI:
                cv = ConstVal::constant(width_wrap(v + op.imm));
                break;
              case MacroOpcode::SubI:
                cv = ConstVal::constant(width_wrap(v - op.imm));
                break;
              case MacroOpcode::AndI:
                cv = ConstVal::constant(v & op.imm);
                break;
              case MacroOpcode::OrI:
                cv = ConstVal::constant(v | op.imm);
                break;
              case MacroOpcode::XorI:
                cv = ConstVal::constant(v ^ op.imm);
                break;
              case MacroOpcode::ShlI:
                cv = ConstVal::constant(width_wrap(
                    static_cast<std::int64_t>(
                        static_cast<std::uint64_t>(v) << sh)));
                break;
              case MacroOpcode::ShrI:
                cv = ConstVal::constant(static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(width_wrap(v)) >> sh));
                break;
              default:
                break;
            }
        }
        def_gpr(op.dst, a.taint, cv);
        if (writesFlags(op))
            def_flags(a.taint);
        return;
      }
      case MacroOpcode::CmpI: case MacroOpcode::TestI: {
        const GprState a = readGpr(op, op.dst, state, emit);
        def_flags(a.taint);
        return;
      }

      // --- load-op forms ---------------------------------------------------
      case MacroOpcode::AddM: case MacroOpcode::SubM:
      case MacroOpcode::AndM: case MacroOpcode::OrM:
      case MacroOpcode::XorM: case MacroOpcode::ImulM: {
        const GprState a = readGpr(op, op.dst, state, emit);
        const MemRef ref = accessMem(op, op.mem, state, emit, false);
        const bool taint = a.taint || ref.valueTaint;
        def_gpr(op.dst, taint, ConstVal::bottom());
        def_flags(taint);
        return;
      }
      case MacroOpcode::CmpM: {
        const GprState a = readGpr(op, op.dst, state, emit);
        const MemRef ref = accessMem(op, op.mem, state, emit, false);
        def_flags(a.taint || ref.valueTaint);
        return;
      }

      // --- control ---------------------------------------------------------
      case MacroOpcode::Jcc:
        readFlags(op, state, emit, true);
        return;
      case MacroOpcode::JmpInd: {
        const GprState target = readGpr(op, op.src1, state, emit);
        if (emit && target.taint && options_.leakLint &&
            !options_.taintSources.empty()) {
            finding("leak.tainted-branch", Severity::Error, op.pc,
                    "indirect jump through a secret-tainted register");
            LeakSite site;
            site.kind = LeakKind::TaintedIndirect;
            site.pc = op.pc;
            site.symbol = cfg_.symbolAt(op.pc);
            site.instrIndex =
                static_cast<std::size_t>(&op - code_.data());
            recordLeak(std::move(site));
        }
        return;
      }
      case MacroOpcode::Jmp:
      case MacroOpcode::Call:
      case MacroOpcode::Ret:
        return;

      // --- vector ----------------------------------------------------------
      case MacroOpcode::MovdqaLoad: {
        const MemRef ref = accessMem(op, op.mem, state, emit, false);
        def_xmm(op.xdst, ref.valueTaint);
        return;
      }
      case MacroOpcode::MovdqaStore: {
        const XmmState src = readXmm(op, op.xsrc, state, emit);
        const MemRef ref = accessMem(op, op.mem, state, emit, true);
        if (ref.resolved && src.taint) {
            for (Addr a = granuleOf(ref.addr);
                 a <= granuleOf(ref.addr + 15); ++a)
                state.taintedGranules.insert(a);
        }
        return;
      }
      case MacroOpcode::MovdqaRR: {
        const XmmState src = readXmm(op, op.xsrc, state, emit);
        def_xmm(op.xdst, src.taint);
        return;
      }
      case MacroOpcode::PslldI: case MacroOpcode::PsrldI: {
        const XmmState a = readXmm(op, op.xdst, state, emit);
        def_xmm(op.xdst, a.taint);
        return;
      }
      case MacroOpcode::Paddb: case MacroOpcode::Paddw:
      case MacroOpcode::Paddd: case MacroOpcode::Paddq:
      case MacroOpcode::Psubb: case MacroOpcode::Psubw:
      case MacroOpcode::Psubd: case MacroOpcode::Psubq:
      case MacroOpcode::Pand: case MacroOpcode::Por:
      case MacroOpcode::Pxor: case MacroOpcode::Pmullw:
      case MacroOpcode::Addps: case MacroOpcode::Mulps:
      case MacroOpcode::Subps: case MacroOpcode::Addpd:
      case MacroOpcode::Mulpd: case MacroOpcode::Subpd:
      case MacroOpcode::Divps: case MacroOpcode::Sqrtps: {
        const XmmState a = readXmm(op, op.xdst, state, emit);
        const XmmState b = readXmm(op, op.xsrc, state, emit);
        def_xmm(op.xdst, a.taint || b.taint);
        return;
      }

      // --- misc ------------------------------------------------------------
      case MacroOpcode::Clflush:
        accessMem(op, op.mem, state, emit, false);
        return;
      case MacroOpcode::Rdtsc:
        def_gpr(Gpr::Rax, false, ConstVal::bottom());
        return;
      case MacroOpcode::Cpuid:
        def_gpr(Gpr::Rax, false, ConstVal::bottom());
        def_gpr(Gpr::Rcx, false, ConstVal::bottom());
        def_gpr(Gpr::Rdx, false, ConstVal::bottom());
        def_gpr(Gpr::Rbx, false, ConstVal::bottom());
        return;
      case MacroOpcode::RepStosI: {
        if (emit && options_.checkMemRegions && op.imm2 > 0) {
            const Addr base = static_cast<Addr>(op.imm);
            const Addr end =
                base + static_cast<Addr>(op.imm2) * cacheBlockSize;
            if (!regions_.inData(base, static_cast<unsigned>(
                                           std::min<Addr>(end - base,
                                                          ~0u)))) {
                finding("mem.out-of-region", Severity::Error, op.pc,
                        "rep-store of [" + hexPc(base) + ", " +
                            hexPc(end) +
                            ") outside every declared data region");
            }
        }
        return;
      }
      case MacroOpcode::Nop:
      case MacroOpcode::Halt:
        return;
      default:
        return;
    }
}

void
Dataflow::run()
{
    const auto &blocks = cfg_.blocks();
    if (blocks.empty() || cfg_.entryBlock() == Cfg::npos)
        return;

    std::vector<FlowState> in(blocks.size());
    in[cfg_.entryBlock()] = entryState();

    // Iterate to fixpoint (all lattices are finite and joins are
    // monotone: maybeUndef/taint only rise, consts only widen, the
    // granule set only grows).
    std::deque<std::size_t> work;
    std::vector<bool> queued(blocks.size(), false);
    work.push_back(cfg_.entryBlock());
    queued[cfg_.entryBlock()] = true;

    while (!work.empty()) {
        const std::size_t b = work.front();
        work.pop_front();
        queued[b] = false;
        if (!blocks[b].reachable && b != cfg_.entryBlock())
            continue;

        FlowState state = in[b];
        if (!state.visited)
            continue;
        for (std::size_t i = blocks[b].first; i <= blocks[b].last; ++i)
            transfer(code_[i], state, false);
        for (std::size_t succ : blocks[b].succs) {
            if (in[succ].join(state) && !queued[succ]) {
                work.push_back(succ);
                queued[succ] = true;
            }
        }
    }

    // Reporting pass: rerun each reachable block once against its
    // fixpoint entry state with findings enabled.
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (!in[b].visited || !blocks[b].reachable)
            continue;
        FlowState state = in[b];
        for (std::size_t i = blocks[b].first; i <= blocks[b].last; ++i)
            transfer(code_[i], state, true);
    }
}

} // namespace

const char *
leakKindName(LeakKind kind)
{
    switch (kind) {
      case LeakKind::TaintedBranch:   return "tainted-branch";
      case LeakKind::TaintedIndirect: return "tainted-indirect";
      case LeakKind::TaintedIndex:    return "tainted-index";
    }
    return "unknown";
}

void
runDataflow(const Cfg &cfg, const VerifyOptions &options,
            VerifyReport &report, std::vector<LeakSite> *leak_sites)
{
    Dataflow flow(cfg, options, report, leak_sites);
    flow.run();
}

} // namespace csd
