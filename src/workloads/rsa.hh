/**
 * @file
 * GnuPG-style RSA square-and-multiply modular exponentiation
 * (paper §IV-C).
 *
 * The victim program computes r = base^e mod n with 32-bit-limb bignum
 * arithmetic, structured exactly as the paper describes: a `square`
 * and a `multiply` function (schoolbook bignum multiply) and a shared
 * shift-and-subtract `reduce`, with `multiply` invoked only when the
 * current exponent bit is 1 — the key-dependent call whose I-cache
 * footprint the FLUSH+RELOAD attack of Fig. 7b reconstructs.
 *
 * Key sizes are scaled (configurable limb count / exponent width) so
 * a full attack runs in seconds; the leak is per-exponent-bit, so the
 * shape of the result is independent of key length (see DESIGN.md).
 */

#ifndef CSD_WORKLOADS_RSA_HH
#define CSD_WORKLOADS_RSA_HH

#include <cstdint>
#include <vector>

#include "common/addr_range.hh"
#include "cpu/arch_state.hh"
#include "csd/defense.hh"
#include "isa/program.hh"

namespace csd
{

/** Reference bignum modexp (32-bit limbs, same algorithm). */
class RsaReference
{
  public:
    using Num = std::vector<std::uint32_t>;

    /** Schoolbook multiply: returns a*b with a.size()+b.size() limbs. */
    static Num multiply(const Num &a, const Num &b);

    /** Shift-and-subtract reduction: x mod n. */
    static Num reduce(Num x, const Num &n);

    /** Square-and-multiply modexp over @p exp_bits bits of e. */
    static Num modexp(const Num &base, const Num &modulus,
                      std::uint64_t exponent, unsigned exp_bits);

    /** Compare two bignums (-1/0/1), ignoring limb-count differences. */
    static int compare(const Num &a, const Num &b);
};

/** A built RSA victim program plus attack-relevant symbols. */
struct RsaWorkload
{
    Program program;

    AddrRange multiplyRange;  //!< code extent of rsa_multiply
    AddrRange squareRange;    //!< code extent of rsa_square
    AddrRange reduceRange;    //!< code extent of rsa_reduce
    AddrRange exponentRange;  //!< the key in memory (taint source)
    AddrRange resultRange;    //!< the running result r (secret data)
    Addr resultAddr = 0;
    unsigned limbs = 2;
    unsigned expBits = 16;
    std::uint64_t exponent = 0;  //!< ground truth for attack scoring

    /**
     * Build a victim computing base^exponent mod modulus.
     * @param limbs  modulus width in 32-bit limbs
     */
    static RsaWorkload build(const RsaReference::Num &base,
                             const RsaReference::Num &modulus,
                             std::uint64_t exponent, unsigned exp_bits);

    /** Read the result bignum out of simulated memory. */
    RsaReference::Num result(const SparseMemory &mem) const;

    /** The canonical (Fig. 7b) defense: decoy fetches over
     *  rsa_multiply, the exponent and the running result as the DIFT
     *  sources. */
    DefenseConfig
    defense() const
    {
        DefenseConfig defense;
        defense.enabled = true;
        defense.decoyIRange = multiplyRange;
        defense.taintSources = {exponentRange, resultRange};
        return defense;
    }
};

} // namespace csd

#endif // CSD_WORKLOADS_RSA_HH
