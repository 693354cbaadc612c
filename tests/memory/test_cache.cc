#include <gtest/gtest.h>

#include <stdexcept>

#include "common/random.hh"
#include "memory/cache.hh"

namespace csd
{
namespace
{

CacheParams
smallCache()
{
    CacheParams params;
    params.name = "test";
    params.sizeBytes = 4 * 1024;  // 64 blocks
    params.assoc = 4;             // 16 sets
    params.hitLatency = 2;
    return params;
}

TEST(Cache, GeometryDerivedFromParams)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.numSets(), 16u);
    EXPECT_EQ(cache.assoc(), 4u);
    EXPECT_EQ(cache.hitLatency(), 2u);
}

TEST(Cache, MissThenHitAfterFill)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false));
    cache.fill(0x1000);
    EXPECT_TRUE(cache.access(0x1000, false));
    EXPECT_TRUE(cache.access(0x103f, false));  // same block
    EXPECT_FALSE(cache.access(0x1040, false)); // next block
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, ContainsDoesNotDisturbState)
{
    Cache cache(smallCache());
    cache.fill(0x2000);
    const auto accesses_before = cache.accesses();
    EXPECT_TRUE(cache.contains(0x2000));
    EXPECT_FALSE(cache.contains(0x3000));
    EXPECT_EQ(cache.accesses(), accesses_before);
}

TEST(Cache, LruEvictionOrder)
{
    Cache cache(smallCache());
    // Fill one set (16 sets -> same set every 16 blocks = 0x400 stride).
    const Addr base = 0x10000;
    const Addr stride = 16 * cacheBlockSize;
    for (unsigned i = 0; i < 4; ++i)
        cache.fill(base + i * stride);
    // Touch block 0 so block 1 becomes LRU.
    EXPECT_TRUE(cache.access(base, false));
    cache.fill(base + 4 * stride);
    EXPECT_TRUE(cache.contains(base));
    EXPECT_FALSE(cache.contains(base + stride));
    EXPECT_TRUE(cache.contains(base + 2 * stride));
}

TEST(Cache, PrimeFillsWholeSet)
{
    // The PRIME step of PRIME+PROBE: after filling a set with attacker
    // blocks, no victim block remains.
    Cache cache(smallCache());
    const Addr victim = 0x8000;
    cache.fill(victim);
    const unsigned set = cache.setIndex(victim);
    const Addr stride =
        static_cast<Addr>(cache.numSets()) * cacheBlockSize;
    const Addr attacker_base = 0x100000 + set * cacheBlockSize;
    for (unsigned way = 0; way < cache.assoc(); ++way)
        cache.fill(attacker_base + way * stride);
    EXPECT_FALSE(cache.contains(victim));
    EXPECT_EQ(cache.setContents(set).size(), cache.assoc());
}

TEST(Cache, InvalidateRemovesBlock)
{
    Cache cache(smallCache());
    cache.fill(0x4000);
    EXPECT_TRUE(cache.invalidate(0x4000));
    EXPECT_FALSE(cache.contains(0x4000));
    EXPECT_FALSE(cache.invalidate(0x4000));  // already gone
}

TEST(Cache, InvalidateAllEmptiesEverySet)
{
    Cache cache(smallCache());
    for (Addr addr = 0; addr < 8 * 1024; addr += cacheBlockSize)
        cache.fill(addr);
    cache.invalidateAll();
    for (unsigned set = 0; set < cache.numSets(); ++set)
        EXPECT_TRUE(cache.setContents(set).empty());
}

TEST(Cache, RefillAfterInvalidateAllKeepsLruOrder)
{
    // Sets are re-initialized lazily on their first fill after
    // invalidateAll(); replacement must then behave exactly as in a
    // freshly built cache, untouched sets included.
    Cache cache(smallCache());
    const Addr stride = 16 * cacheBlockSize;
    for (unsigned i = 0; i < 4; ++i)
        cache.fill(0x10000 + i * stride);
    EXPECT_TRUE(cache.access(0x10000 + 3 * stride, false));
    cache.invalidateAll();
    EXPECT_FALSE(cache.contains(0x10000));
    EXPECT_FALSE(cache.invalidate(0x10000));

    const Addr base = 0x20000;
    for (unsigned i = 0; i < 4; ++i)
        cache.fill(base + i * stride);
    EXPECT_EQ(cache.setContents(cache.setIndex(base)).size(), 4u);
    EXPECT_TRUE(cache.access(base, false));
    cache.fill(base + 4 * stride);  // evicts block 1, the LRU
    EXPECT_TRUE(cache.contains(base));
    EXPECT_FALSE(cache.contains(base + stride));
    EXPECT_TRUE(cache.setContents(cache.setIndex(base) + 1).empty());
}

TEST(Cache, SetIndexUsesBlockNumberBits)
{
    Cache cache(smallCache());
    EXPECT_EQ(cache.setIndex(0x0), 0u);
    EXPECT_EQ(cache.setIndex(0x40), 1u);
    EXPECT_EQ(cache.setIndex(0x3c0), 15u);
    EXPECT_EQ(cache.setIndex(0x400), 0u);  // wraps at numSets
}

TEST(Cache, RejectsBadGeometry)
{
    CacheParams params = smallCache();
    params.assoc = 0;
    EXPECT_THROW(Cache cache(params), std::runtime_error);
    params = smallCache();
    params.sizeBytes = 3000;  // not divisible
    EXPECT_THROW(Cache cache(params), std::runtime_error);
}

TEST(Cache, RandomizedResidencyMatchesReferenceModel)
{
    // Property test: the cache agrees with a brute-force LRU model.
    Cache cache(smallCache());
    Random rng(1234);
    // Reference: per set, ordered vector of block addrs (MRU front).
    std::vector<std::vector<Addr>> ref(cache.numSets());
    for (int iter = 0; iter < 20000; ++iter) {
        const Addr addr =
            blockAlign(rng.below(64 * 1024));
        const unsigned set = cache.setIndex(addr);
        auto &mru = ref[set];
        auto it = std::find(mru.begin(), mru.end(), addr);
        const bool ref_hit = it != mru.end();
        const bool hit = cache.access(addr, rng.chance(0.3));
        EXPECT_EQ(hit, ref_hit) << "iter " << iter;
        if (ref_hit) {
            mru.erase(it);
        } else {
            cache.fill(addr);
            if (mru.size() == cache.assoc())
                mru.pop_back();
        }
        mru.insert(mru.begin(), addr);
    }
}

} // namespace
} // namespace csd
