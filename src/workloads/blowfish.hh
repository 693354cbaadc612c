/**
 * @file
 * Blowfish (MiBench security suite, paper §VI-A).
 *
 * A 16-round Feistel cipher whose F function makes four key-dependent
 * S-box lookups per round — a data-cache side-channel surface like the
 * AES T-tables. The reference implementation runs the full Blowfish
 * key schedule (P-array/S-box churn); the victim program executes the
 * unrolled 16 rounds against the expanded tables.
 *
 * The initial P/S constants are generated from a deterministic PRNG
 * rather than the digits of pi; both reference and victim use the same
 * tables, so correctness and the leak structure are preserved (see
 * DESIGN.md substitutions).
 */

#ifndef CSD_WORKLOADS_BLOWFISH_HH
#define CSD_WORKLOADS_BLOWFISH_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/addr_range.hh"
#include "cpu/arch_state.hh"
#include "csd/defense.hh"
#include "isa/program.hh"

namespace csd
{

/** Reference Blowfish with key schedule. */
class BlowfishReference
{
  public:
    struct Schedule
    {
        std::array<std::uint32_t, 18> p{};
        std::array<std::array<std::uint32_t, 256>, 4> s{};
    };

    /** Run the key schedule over @p key (1..56 bytes). */
    static Schedule expandKey(const std::vector<std::uint8_t> &key);

    /** Encrypt one 64-bit block (two 32-bit halves). */
    static std::pair<std::uint32_t, std::uint32_t>
    encrypt(const Schedule &sched, std::uint32_t left,
            std::uint32_t right);

    /** Decrypt one 64-bit block. */
    static std::pair<std::uint32_t, std::uint32_t>
    decrypt(const Schedule &sched, std::uint32_t left,
            std::uint32_t right);
};

/** A built Blowfish victim program. */
struct BlowfishWorkload
{
    Program program;

    Addr inAddr = 0;          //!< two u32 halves (L, R)
    Addr outAddr = 0;
    AddrRange sboxRange;      //!< S0..S3: 4 KiB of sensitive data
    AddrRange keyRange;       //!< P-array (taint source)
    bool decryptMode = false;

    static BlowfishWorkload build(const std::vector<std::uint8_t> &key,
                                  bool decrypt = false);

    void setInput(SparseMemory &mem, std::uint32_t left,
                  std::uint32_t right) const;
    std::pair<std::uint32_t, std::uint32_t>
    output(const SparseMemory &mem) const;

    /** The canonical defense: decoy loads over the S-boxes, the
     *  P-array as the DIFT source. */
    DefenseConfig
    defense() const
    {
        DefenseConfig defense;
        defense.enabled = true;
        defense.decoyDRange = sboxRange;
        defense.taintSources = {keyRange};
        return defense;
    }
};

} // namespace csd

#endif // CSD_WORKLOADS_BLOWFISH_HH
