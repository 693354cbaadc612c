/**
 * @file
 * MiBench-style Rijndael (paper §VI-A).
 *
 * The same AES-128 cipher as workloads/aes.hh, but implemented the way
 * compact Rijndael codes do it: a single 1 KiB T-table with per-term
 * word rotations instead of four rotated tables, plus an S-box table
 * for the last round. The leak surface is therefore different — 16
 * data-cache blocks of one table instead of 64 across four — which is
 * why the paper evaluates it as a separate benchmark.
 */

#ifndef CSD_WORKLOADS_RIJNDAEL_HH
#define CSD_WORKLOADS_RIJNDAEL_HH

#include "workloads/aes.hh"

namespace csd
{

/** A built single-table Rijndael victim. */
struct RijndaelWorkload
{
    Program program;

    Addr ptAddr = 0;
    Addr ctAddr = 0;
    AddrRange tTableRange;  //!< the single T-table + last-round table
    AddrRange keyRange;
    bool decryptMode = false;

    static RijndaelWorkload
    build(const std::array<std::uint8_t, 16> &key, bool decrypt = false);

    void setInput(SparseMemory &mem,
                  const AesReference::Block &block) const;
    AesReference::Block output(const SparseMemory &mem) const;

    /** The canonical defense: decoy loads over the T-table and the
     *  last-round table, the round keys as the DIFT source. */
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

#endif // CSD_WORKLOADS_RIJNDAEL_HH
