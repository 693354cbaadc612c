/**
 * @file
 * OpenSSL-style T-table AES-128 (paper §IV-D).
 *
 * Two pieces: a C++ reference implementation (key expansion and
 * block encrypt/decrypt via the Te/Td tables, validated against FIPS
 * test vectors), and a mini-ISA program generator emitting the same
 * computation as an unrolled T-table implementation — four 1 KiB
 * tables, so the key-dependent loads touch 64 data-cache blocks, the
 * exact surface the PRIME+PROBE / FLUSH+RELOAD attacks of Fig. 7a
 * exploit.
 */

#ifndef CSD_WORKLOADS_AES_HH
#define CSD_WORKLOADS_AES_HH

#include <array>
#include <cstdint>

#include "common/addr_range.hh"
#include "cpu/arch_state.hh"
#include "csd/defense.hh"
#include "isa/program.hh"

namespace csd
{

/** Reference AES-128 (T-table construction, key schedules, block ops). */
class AesReference
{
  public:
    using Block = std::array<std::uint8_t, 16>;
    using RoundKeys = std::array<std::uint32_t, 44>;

    /** Forward key schedule. */
    static RoundKeys expandKey(const std::array<std::uint8_t, 16> &key);

    /** Equivalent-inverse-cipher (decryption) key schedule. */
    static RoundKeys invExpandKey(const std::array<std::uint8_t, 16> &key);

    static Block encrypt(const RoundKeys &rk, const Block &in);
    static Block decrypt(const RoundKeys &dk, const Block &in);

    /** Encryption tables Te0..Te3 (256 u32 each). */
    static const std::array<std::uint32_t, 256> &te(unsigned idx);
    /** S-box as u32 replicated bytes (Te4). */
    static const std::array<std::uint32_t, 256> &te4();
    /** Decryption tables Td0..Td3. */
    static const std::array<std::uint32_t, 256> &td(unsigned idx);
    /** Inverse S-box table (Td4). */
    static const std::array<std::uint32_t, 256> &td4();
};

/** A built AES victim program plus its attack-relevant symbols. */
struct AesWorkload
{
    Program program;

    Addr ptAddr = 0;          //!< 16-byte input block
    Addr ctAddr = 0;          //!< 16-byte output block
    AddrRange tTableRange;    //!< Te0..Te3 (4 KiB) or Td0..Td4 (5 KiB)
    AddrRange keyRange;       //!< round keys (the DIFT taint source)
    bool decryptMode = false;

    /**
     * Build the victim. The program encrypts (or decrypts) the block
     * at ptAddr into ctAddr once and halts; harnesses rewrite the
     * input and restart for each operation.
     */
    static AesWorkload build(const std::array<std::uint8_t, 16> &key,
                             bool decrypt = false);

    /** Write an input block into simulated memory. */
    void setInput(SparseMemory &mem,
                  const AesReference::Block &block) const;

    /** Read the output block from simulated memory. */
    AesReference::Block output(const SparseMemory &mem) const;

    /** The canonical (Fig. 7a) defense: decoy loads over the
     *  T-tables, the round keys as the DIFT source. */
    DefenseConfig
    defense() const
    {
        DefenseConfig defense;
        defense.enabled = true;
        defense.decoyDRange = tTableRange;
        defense.taintSources = {keyRange};
        return defense;
    }
};

} // namespace csd

#endif // CSD_WORKLOADS_AES_HH
