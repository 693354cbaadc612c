/**
 * @file
 * Program container and assembler-style builder for the mini-ISA.
 *
 * A Program is a fully linked unit: instructions with assigned PCs and
 * byte lengths, a data image of initialized chunks and zero spans, and
 * a symbol table giving the address extents of functions and data
 * objects (used, e.g., to program the decoy address-range MSRs with the
 * RSA `multiply` function or the AES T-tables).
 */

#ifndef CSD_ISA_PROGRAM_HH
#define CSD_ISA_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/addr_range.hh"
#include "common/types.hh"
#include "isa/macroop.hh"

namespace csd
{

/**
 * One chunk of a program's data image: @p size initialized bytes at
 * @p addr, or, with no bytes stored, @p size zero bytes (a reserved
 * working set costs its extent, not a zero vector).
 */
struct DataChunk
{
    Addr addr = 0;
    std::size_t size = 0;
    std::vector<std::uint8_t> bytes;  //!< size bytes, or empty: all zero

    /** True iff the chunk is a zero span (no stored bytes). */
    bool zero() const { return bytes.empty(); }

    /** The chunk's address extent. */
    AddrRange range() const { return AddrRange(addr, addr + size); }
};

/** A fully assembled program. */
class Program
{
  public:
    /** Instruction stream, ordered by PC. */
    const std::vector<MacroOp> &code() const { return code_; }

    /** Entry point PC. */
    Addr entry() const { return entry_; }

    /**
     * Instruction at @p pc, or nullptr if no instruction starts there.
     * Inline dense-table fast path: the simulator calls this once per
     * executed instruction.
     */
    const MacroOp *
    at(Addr pc) const
    {
        const Addr off = pc - codeBase_;
        if (off < denseIndex_.size()) {
            const std::int32_t i = denseIndex_[off];
            return i >= 0 ? &code_[static_cast<std::size_t>(i)] : nullptr;
        }
        return atSparse(pc);
    }

    /** The data image, in placement order. */
    const std::vector<DataChunk> &data() const { return data_; }

    /** Address extent of a named symbol; fatal if unknown. */
    AddrRange symbol(const std::string &name) const;

    /** True iff @p name is defined. */
    bool hasSymbol(const std::string &name) const;

    /** All symbols. */
    const std::map<std::string, AddrRange> &symbols() const
    {
        return symbols_;
    }

    /** Extent of the code section. */
    AddrRange codeRange() const;

    /** Number of static instructions. */
    std::size_t size() const { return code_.size(); }

  private:
    friend class ProgramBuilder;

    const MacroOp *atSparse(Addr pc) const;

    std::vector<MacroOp> code_;
    std::unordered_map<Addr, std::size_t> pcIndex_;
    // Dense pc -> code_ index table over [codeBase_, codeBase_ +
    // denseIndex_.size()): the simulator calls at() once per executed
    // instruction, so the lookup must not hash. -1 marks addresses
    // where no instruction starts; pcIndex_ remains the fallback for
    // programs too sparse to tabulate.
    Addr codeBase_ = 0;
    std::vector<std::int32_t> denseIndex_;
    Addr entry_ = invalidAddr;
    std::vector<DataChunk> data_;
    std::map<std::string, AddrRange> symbols_;
};

/**
 * Innermost (smallest covering) symbol containing @p pc, or "" if no
 * symbol covers it. Shared provenance helper for build-time structural
 * findings and the csd-verify passes.
 */
std::string innermostSymbol(const Program &prog, Addr pc);

/** Convenience constructors for memory operands. */
MemOperand memAt(Gpr base, std::int64_t disp = 0,
                 MemSize size = MemSize::B8);
MemOperand memIdx(Gpr base, Gpr index, std::uint8_t scale = 1,
                  std::int64_t disp = 0, MemSize size = MemSize::B8);
MemOperand memAbs(Addr addr, MemSize size = MemSize::B8);
/** Table addressing: [table_base + index*scale], no base register. */
MemOperand memTable(Addr table, Gpr index, std::uint8_t scale,
                    MemSize size = MemSize::B4);

/**
 * Assembler-style program builder with labels, fixups, symbols, and a
 * data section.
 */
class ProgramBuilder
{
  public:
    /** Opaque label handle. */
    using Label = int;

    explicit ProgramBuilder(Addr code_base = 0x400000,
                            Addr data_base = 0x600000);

    // ------------------------------------------------------------------
    // Labels and symbols
    // ------------------------------------------------------------------

    /** Create a new unbound label. */
    Label newLabel();

    /** Bind @p label to the current code cursor. */
    void bind(Label label);

    /** Current code cursor (PC of the next emitted instruction). */
    Addr here() const { return cursor_; }

    /**
     * Align the code cursor to @p alignment bytes (e.g. a cache block
     * before a function whose I-cache footprint must not alias its
     * neighbor's). The gap contains no instructions.
     */
    void alignCode(unsigned alignment);

    /** Begin a named region (function); end with endSymbol(). */
    void beginSymbol(const std::string &name);

    /** Close the most recent beginSymbol() region. */
    void endSymbol(const std::string &name);

    /** Set the program entry point to the current cursor. */
    void markEntry();

    // ------------------------------------------------------------------
    // Data section
    // ------------------------------------------------------------------

    /** Place initialized bytes in the data section; returns address. */
    Addr defineData(const std::string &name,
                    const std::vector<std::uint8_t> &bytes,
                    unsigned align = 64);

    /** Place 32-bit words (little-endian) in the data section. */
    Addr defineDataWords(const std::string &name,
                         const std::vector<std::uint32_t> &words,
                         unsigned align = 64);

    /** Reserve zero-initialized space (a zero span: no bytes stored). */
    Addr reserveData(const std::string &name, std::size_t size,
                     unsigned align = 64);

    // ------------------------------------------------------------------
    // Instruction emitters
    // ------------------------------------------------------------------

    void movri(Gpr dst, std::int64_t imm);
    void movrr(Gpr dst, Gpr src);
    void load(Gpr dst, const MemOperand &mem);
    void store(const MemOperand &mem, Gpr src);
    void storeImm(const MemOperand &mem, std::int32_t imm);
    void lea(Gpr dst, const MemOperand &mem);
    void push(Gpr src);
    void pop(Gpr dst);

    void alu(MacroOpcode op, Gpr dst, Gpr src,
             OpWidth width = OpWidth::W64);
    void aluImm(MacroOpcode op, Gpr dst, std::int64_t imm,
                OpWidth width = OpWidth::W64);
    void aluMem(MacroOpcode op, Gpr dst, const MemOperand &mem,
                OpWidth width = OpWidth::W64);

    // Frequently used ALU shorthands.
    void add(Gpr dst, Gpr src) { alu(MacroOpcode::Add, dst, src); }
    void sub(Gpr dst, Gpr src) { alu(MacroOpcode::Sub, dst, src); }
    void and_(Gpr dst, Gpr src) { alu(MacroOpcode::And, dst, src); }
    void or_(Gpr dst, Gpr src) { alu(MacroOpcode::Or, dst, src); }
    void xor_(Gpr dst, Gpr src) { alu(MacroOpcode::Xor, dst, src); }
    void imul(Gpr dst, Gpr src) { alu(MacroOpcode::Imul, dst, src); }
    void cmp(Gpr a, Gpr b) { alu(MacroOpcode::Cmp, a, b); }
    void test(Gpr a, Gpr b) { alu(MacroOpcode::Test, a, b); }
    void addi(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::AddI, dst, i); }
    void subi(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::SubI, dst, i); }
    void andi(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::AndI, dst, i); }
    void ori(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::OrI, dst, i); }
    void xori(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::XorI, dst, i); }
    void shli(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::ShlI, dst, i); }
    void shri(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::ShrI, dst, i); }
    void cmpi(Gpr dst, std::int64_t i) { aluImm(MacroOpcode::CmpI, dst, i); }
    void testi(Gpr dst, std::int64_t i)
    {
        aluImm(MacroOpcode::TestI, dst, i);
    }

    void jmp(Label target);
    void jcc(Cond cond, Label target);
    void jmpInd(Gpr target);
    void call(Label target);
    void ret();

    void movdqaLoad(Xmm dst, const MemOperand &mem);
    void movdqaStore(const MemOperand &mem, Xmm src);
    void movdqaRR(Xmm dst, Xmm src);
    void vecOp(MacroOpcode op, Xmm dst, Xmm src);
    void vecShiftImm(MacroOpcode op, Xmm dst, std::uint8_t imm);

    void nop();
    void clflush(const MemOperand &mem);
    void rdtsc();
    void cpuid();
    void repStos(Addr base, std::uint32_t block_count);
    void halt();

    /** Emit a fully specified MacroOp (escape hatch / custom tests). */
    void emit(MacroOp op);

    // ------------------------------------------------------------------

    /**
     * Enable/disable the structural verification build() runs after
     * linking (on by default; off only for builders that must
     * assemble broken programs, such as the verifier self-tests). The
     * checks are the cheap subset of csd-verify (verify/verify.hh):
     * every direct branch or call target must start an instruction,
     * and the entry PC must be executable. Violations are fatal — they
     * would make the simulator wander into undefined fetch behavior.
     */
    void setVerify(bool on) { verify_ = on; }

    /** Resolve all labels and produce the Program. */
    Program build();

  private:
    void place(MacroOp &op);
    /** Align the data cursor, open a bytes-less chunk of @p size there
     *  and name it; returns its address. */
    Addr placeData(const std::string &name, std::size_t size,
                   unsigned align);
    void verifyStructure(const Program &prog) const;

    bool verify_ = true;

    Addr cursor_;
    Addr dataCursor_;
    Addr entry_ = invalidAddr;

    std::vector<MacroOp> code_;
    std::vector<Addr> labelAddrs_;           //!< invalidAddr if unbound
    std::vector<std::pair<std::size_t, Label>> fixups_;
    std::map<std::string, AddrRange> symbols_;
    std::map<std::string, Addr> openSymbols_;
    std::vector<DataChunk> data_;
};

} // namespace csd

#endif // CSD_ISA_PROGRAM_HH
