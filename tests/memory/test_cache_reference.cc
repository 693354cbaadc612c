/**
 * @file
 * Differential tests of Cache against a reference true-LRU model: a
 * per-set recency list (most recent first) plus the way slots, so the
 * order setContents() reports is checked too. Random access, fill,
 * invalidate and invalidateAll streams run over the production L1D,
 * L2 and LLC geometries, a 2-set toy and a 12-way cache (its stored
 * width caps at 12, not a power of two); a second run starts the LRU
 * clock just below its wrap. Directed streams drive sets past each
 * stored width with invalidate holes before a widen, invalidateAll
 * after one and a clock wrap after one.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.hh"
#include "memory/cache.hh"
#include "memory/hierarchy.hh"
#include "memory/set_monitor.hh"

namespace csd
{

/** Reaches Cache's LRU clock and stored width; Cache names it a
 *  friend. */
class CacheTestPeer
{
  public:
    static Cache::Stamp clock(const Cache &cache) { return cache.lruClock_; }

    /** Ways @p cache stores per set. */
    static unsigned storedWays(const Cache &cache) { return cache.width_; }

    /** Move the clock forward to @p stamp (never back, so every stamp
     *  in the cache stays at or below it). */
    static void
    advanceClock(Cache &cache, Cache::Stamp stamp)
    {
        ASSERT_GE(stamp, cache.lruClock_);
        cache.lruClock_ = stamp;
    }
};

namespace
{

/** True LRU over way slots: what a Cache must agree with. */
class ReferenceCache
{
  public:
    ReferenceCache(unsigned num_sets, unsigned assoc)
        : assoc_(assoc), sets_(num_sets)
    {
        for (Set &set : sets_)
            set.slots.assign(assoc, invalidAddr);
    }

    bool
    access(unsigned set, Addr block)
    {
        auto &recency = sets_[set].recency;
        const auto it = std::find(recency.begin(), recency.end(), block);
        if (it == recency.end())
            return false;
        recency.splice(recency.begin(), recency, it);
        return true;
    }

    bool
    contains(unsigned set, Addr block) const
    {
        const auto &recency = sets_[set].recency;
        return std::find(recency.begin(), recency.end(), block) !=
               recency.end();
    }

    /** Install an absent block in the first empty slot, else in the
     *  least recently used block's slot. */
    void
    fill(unsigned set, Addr block)
    {
        Set &s = sets_[set];
        auto slot = std::find(s.slots.begin(), s.slots.end(), invalidAddr);
        if (slot == s.slots.end()) {
            slot = std::find(s.slots.begin(), s.slots.end(), s.recency.back());
            s.recency.pop_back();
            ++s.evictions;
            ++evictions_;
        }
        *slot = block;
        s.recency.push_front(block);
    }

    bool
    invalidate(unsigned set, Addr block)
    {
        Set &s = sets_[set];
        const auto it = std::find(s.recency.begin(), s.recency.end(), block);
        if (it == s.recency.end())
            return false;
        s.recency.erase(it);
        *std::find(s.slots.begin(), s.slots.end(), block) = invalidAddr;
        ++invalidations_;
        return true;
    }

    void
    invalidateAll()
    {
        for (Set &set : sets_) {
            set.recency.clear();
            set.slots.assign(assoc_, invalidAddr);
        }
    }

    /** Resident blocks in way order, as Cache::setContents(). */
    std::vector<Addr>
    contents(unsigned set) const
    {
        std::vector<Addr> blocks;
        for (Addr slot : sets_[set].slots)
            if (slot != invalidAddr)
                blocks.push_back(slot);
        return blocks;
    }

    std::uint64_t setEvictions(unsigned set) const
    {
        return sets_[set].evictions;
    }
    std::uint64_t evictions() const { return evictions_; }
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    struct Set
    {
        std::list<Addr> recency;  //!< most recently used first
        std::vector<Addr> slots;  //!< per way; invalidAddr = empty
        std::uint64_t evictions = 0;
    };

    unsigned assoc_;
    std::vector<Set> sets_;
    std::uint64_t evictions_ = 0;
    std::uint64_t invalidations_ = 0;
};

/**
 * Blocks that contend for a few sets: each set gets a pool of 3 x assoc
 * block numbers, some of them at the top of the tag range.
 */
std::vector<Addr>
contendedBlocks(const Cache &cache, Random &rng)
{
    const Addr num_sets = cache.numSets();
    const Addr top = (Cache::maxAddr / cacheBlockSize - 1) / num_sets - 1;
    std::vector<Addr> blocks;
    for (unsigned pick = 0; pick < 4; ++pick) {
        const Addr set = rng.below(num_sets);
        for (Addr way = 0; way < 3 * Addr{cache.assoc()}; ++way) {
            const Addr upper = way % 4 == 3 ? top - way : way;
            blocks.push_back((upper * num_sets + set) * cacheBlockSize);
        }
    }
    return blocks;
}

/**
 * Drive @p cache and the reference with the same random stream and
 * compare every result. @p near_wrap > 0 restarts the LRU clock that
 * many stamps below its wrap whenever it has fallen back far below it,
 * so the stream crosses many renumberings.
 */
void
runDifferential(const CacheParams &params, std::uint64_t seed,
                unsigned ops, Cache::Stamp near_wrap = 0)
{
    Cache cache(params);
    CacheSetMonitor monitor(SetMonitorConfig{1u << 30, 16});
    cache.setMonitor(&monitor, CacheSetMonitor::Structure::L1D);
    ReferenceCache ref(cache.numSets(), cache.assoc());
    Random rng(seed);
    const std::vector<Addr> blocks = contendedBlocks(cache, rng);
    const Cache::Stamp max_stamp = ~Cache::Stamp{0};
    unsigned wraps = 0;
    std::vector<unsigned> touched;

    for (unsigned op = 0; op < ops; ++op) {
        SCOPED_TRACE(params.name + " seed " + std::to_string(seed) +
                     " op " + std::to_string(op));
        if (near_wrap && CacheTestPeer::clock(cache) < max_stamp / 2) {
            if (op != 0)
                ++wraps;
            CacheTestPeer::advanceClock(
                cache, max_stamp - static_cast<Cache::Stamp>(
                                       rng.below(near_wrap) + 1));
        }
        const Addr addr = blocks[rng.below(blocks.size())] +
                          rng.below(cacheBlockSize);
        const Addr block = blockAlign(addr);
        const unsigned set = cache.setIndex(addr);
        touched.push_back(set);
        const std::uint64_t kind = rng.below(1000);
        if (kind < 700) {
            const bool hit = cache.access(addr, rng.chance(0.3));
            ASSERT_EQ(hit, ref.access(set, block));
            if (!hit && rng.chance(0.9)) {
                cache.fill(addr);
                ref.fill(set, block);
            }
        } else if (kind < 850) {
            ASSERT_EQ(cache.invalidate(addr), ref.invalidate(set, block));
        } else if (kind < 999) {
            ASSERT_EQ(cache.contains(addr), ref.contains(set, block));
        } else {
            cache.invalidateAll();
            ref.invalidateAll();
        }
        if (op % 512 == 511 || op + 1 == ops) {
            for (unsigned s : touched)
                ASSERT_EQ(cache.setContents(s), ref.contents(s))
                    << "set " << s;
            touched.clear();
        }
    }

    for (unsigned set = 0; set < cache.numSets(); ++set) {
        ASSERT_EQ(cache.setContents(set), ref.contents(set)) << "set " << set;
        ASSERT_EQ(monitor.counters(CacheSetMonitor::Structure::L1D)[set]
                      .evictions,
                  ref.setEvictions(set))
            << "set " << set;
    }
    EXPECT_EQ(cache.stats().valueOf("evictions"),
              static_cast<double>(ref.evictions()));
    EXPECT_EQ(cache.stats().valueOf("invalidations"),
              static_cast<double>(ref.invalidations()));
    EXPECT_GT(ref.evictions(), 0u);
    if (near_wrap) {
        EXPECT_GT(wraps, 10u);
    }
}

/** A cache of four 12-way sets. */
const CacheParams twelveWay{"twelve", 4 * 12 * cacheBlockSize, 12, 1};

/** The geometries under test: the production hierarchy's caches, a
 *  toy with two 4-way sets and the 12-way cache. */
std::vector<CacheParams>
geometries()
{
    const MemHierarchyParams mem;
    return {mem.l1d, mem.l2, mem.llc, CacheParams{"toy", 512, 4, 1},
            twelveWay};
}

/** A Cache and the reference driven in lockstep by directed steps. */
class Lockstep
{
  public:
    explicit Lockstep(const CacheParams &params)
        : cache(params), ref(cache.numSets(), cache.assoc())
    {
    }

    /** The address of the @p i-th block of @p set. */
    Addr
    block(unsigned set, Addr i) const
    {
        return (i * cache.numSets() + set) * cacheBlockSize;
    }

    /** Access @p addr and fill it on a miss. */
    void
    touch(Addr addr)
    {
        const unsigned set = cache.setIndex(addr);
        const bool hit = cache.access(addr, false);
        ASSERT_EQ(hit, ref.access(set, addr));
        if (!hit) {
            cache.fill(addr);
            ref.fill(set, addr);
        }
    }

    void
    invalidate(Addr addr)
    {
        ASSERT_EQ(cache.invalidate(addr),
                  ref.invalidate(cache.setIndex(addr), addr));
    }

    void
    invalidateAll()
    {
        cache.invalidateAll();
        ref.invalidateAll();
    }

    /** Every set's contents and the eviction count agree. */
    void
    check()
    {
        for (unsigned set = 0; set < cache.numSets(); ++set)
            ASSERT_EQ(cache.setContents(set), ref.contents(set))
                << "set " << set;
        ASSERT_EQ(cache.stats().valueOf("evictions"),
                  static_cast<double>(ref.evictions()));
    }

    Cache cache;
    ReferenceCache ref;
};

TEST(CacheReference, RandomStreamsMatchTrueLru)
{
    for (const CacheParams &params : geometries())
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            runDifferential(params, seed, 20000);
}

TEST(CacheReference, VictimsAcrossClockWrapMatchTrueLru)
{
    // The clock restarts a few hundred stamps below 2^32 - 1, so the
    // stream renumbers every live set's stamps again and again.
    for (const CacheParams &params : geometries())
        runDifferential(params, 7, 20000, 300);
}

TEST(CacheReference, RenumberingRestartsTheClockAboveTheLiveStamps)
{
    Cache cache(CacheParams{"toy", 512, 4, 1});
    const Addr stride = 2 * cacheBlockSize;  // same set, two sets
    for (Addr i = 0; i < 4; ++i)
        cache.fill(i * stride);
    CacheTestPeer::advanceClock(cache, ~Cache::Stamp{0});
    ASSERT_TRUE(cache.access(0, false));  // wraps: renumber, then stamp
    EXPECT_EQ(CacheTestPeer::clock(cache), cache.assoc() + 1);
    cache.fill(4 * stride);  // evicts block 1, the LRU
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(stride));
    EXPECT_TRUE(cache.contains(2 * stride));
}

TEST(CacheReference, StoredWaysGrowOnlyWhenASetIsFull)
{
    Lockstep run(twelveWay);
    Cache &cache = run.cache;
    EXPECT_EQ(cache.storageBytes(), 0u);  // nothing mapped before a fill
    run.touch(run.block(0, 0));
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 1u);
    EXPECT_EQ(cache.storageBytes(), cache.numSets() * 8u);
    run.touch(run.block(1, 0));  // another set: its own first way
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 1u);
    run.touch(run.block(0, 1));  // set 0 full at width 1
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 2u);
    run.check();

    // A hole before the widen takes the next fill, not a new way.
    run.invalidate(run.block(0, 0));
    run.touch(run.block(0, 2));
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 2u);
    EXPECT_EQ(cache.setContents(0),
              (std::vector<Addr>{run.block(0, 2), run.block(0, 1)}));
    // Set 1 was copied with an invalid second way: no eviction.
    run.touch(run.block(1, 1));
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 2u);
    run.check();

    // Filling set 0 walks the width through 4 and 8 to the cap of 12;
    // each new block lands in the first new way.
    for (Addr i = 3; i < 13; ++i) {
        run.touch(run.block(0, i));
        run.check();
    }
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 12u);
    EXPECT_EQ(cache.storageBytes(), cache.numSets() * 12u * 8u);
    EXPECT_EQ(cache.stats().valueOf("evictions"), 0.0);
    // Past the cap a fill evicts the LRU way (block 1, way 1).
    run.touch(run.block(0, 13));
    EXPECT_EQ(CacheTestPeer::storedWays(cache), 12u);
    EXPECT_FALSE(cache.contains(run.block(0, 1)));
    run.check();
}

TEST(CacheReference, WideningStreamsMatchTrueLru)
{
    // Per set: fill past each stored width, punch holes, refill, empty
    // the cache, and cross a clock wrap once the rows are wide.
    for (const CacheParams &params :
         {twelveWay, CacheParams{"toy", 512, 4, 1}, MemHierarchyParams{}.l2,
          MemHierarchyParams{}.llc}) {
        SCOPED_TRACE(params.name);
        Lockstep run(params);
        const unsigned assoc = run.cache.assoc();
        const unsigned sets = std::min(run.cache.numSets(), 4u);
        Random rng(11);
        for (unsigned round = 0; round < 6; ++round) {
            for (unsigned set = 0; set < sets; ++set) {
                const unsigned fills = 1 + static_cast<unsigned>(
                                               rng.below(assoc + 2));
                for (unsigned i = 0; i < fills; ++i)
                    run.touch(run.block(set, rng.below(2 * assoc)));
                for (unsigned i = 0; i < 2; ++i)
                    run.invalidate(run.block(set, rng.below(2 * assoc)));
            }
            run.check();
            if (round == 2) {
                run.invalidateAll();
                run.check();
            }
            if (round == 3) {
                EXPECT_GT(CacheTestPeer::storedWays(run.cache), 1u);
                CacheTestPeer::advanceClock(run.cache,
                                            ~Cache::Stamp{0} - 5);
            }
        }
        EXPECT_GT(run.ref.evictions(), 0u);
        EXPECT_EQ(CacheTestPeer::storedWays(run.cache), assoc);
        EXPECT_LT(CacheTestPeer::clock(run.cache), 1000u);  // wrapped
    }
}

TEST(CacheReference, AddressBeyondTagRangeFailsLoudly)
{
    Cache cache(MemHierarchyParams{}.llc);
    const Addr last = Cache::maxAddr - 1;
    EXPECT_FALSE(cache.access(last, false));
    cache.fill(last);
    EXPECT_TRUE(cache.contains(last));
    EXPECT_EQ(cache.setContents(cache.setIndex(last)),
              std::vector<Addr>{blockAlign(last)});

    for (Addr bad : {Cache::maxAddr, invalidAddr}) {
        EXPECT_THROW(cache.access(bad, false), std::runtime_error);
        EXPECT_THROW(cache.contains(bad), std::runtime_error);
        EXPECT_THROW(cache.fill(bad), std::runtime_error);
        EXPECT_THROW(cache.invalidate(bad), std::runtime_error);
    }
    try {
        cache.fill(Cache::maxAddr);
        FAIL() << "no error";
    } catch (const std::runtime_error &err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("llc"), std::string::npos) << what;
        EXPECT_NE(what.find("0x3fffffffc0"), std::string::npos) << what;
    }
}

} // namespace
} // namespace csd
