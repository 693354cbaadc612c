#include "memory/cache.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace csd
{

Cache::Cache(const CacheParams &params)
    : params_(params), stats_(params.name)
{
    if (params_.assoc == 0)
        csd_fatal("Cache ", params_.name, ": associativity must be > 0");
    const std::uint64_t num_blocks = params_.sizeBytes / cacheBlockSize;
    if (num_blocks == 0 || num_blocks % params_.assoc != 0)
        csd_fatal("Cache ", params_.name, ": size ", params_.sizeBytes,
                  " not divisible into ", params_.assoc, "-way sets");
    numSets_ = static_cast<unsigned>(num_blocks / params_.assoc);
    if (!isPowerOf2(numSets_))
        csd_fatal("Cache ", params_.name, ": set count ", numSets_,
                  " is not a power of two");
    tags_ = std::make_unique_for_overwrite<Addr[]>(num_blocks);
    lruStamps_ = std::make_unique_for_overwrite<std::uint64_t[]>(num_blocks);
    dirty_ = std::make_unique_for_overwrite<std::uint8_t[]>(num_blocks);
    liveSets_.assign((numSets_ + 63) / 64, 0);

    stats_.addCounter("accesses", &accesses_, "demand accesses");
    stats_.addCounter("misses", &misses_, "demand misses");
    stats_.addCounter("write_accesses", &writeAccesses_, "write accesses");
    stats_.addCounter("evictions", &evictions_, "capacity/conflict evictions");
    stats_.addCounter("invalidations", &invalidations_,
                      "explicit invalidations (clflush)");
}

void
Cache::makeSetLive(unsigned set)
{
    const std::size_t base = static_cast<std::size_t>(set) * params_.assoc;
    std::fill_n(&tags_[base], params_.assoc, invalidAddr);
    std::fill_n(&lruStamps_[base], params_.assoc, 0);
    std::fill_n(&dirty_[base], params_.assoc, 0);
    liveSets_[set >> 6] |= std::uint64_t{1} << (set & 63);
}

bool
Cache::contains(Addr addr) const
{
    return findWay(addr) != invalidWay;
}

void
Cache::fill(Addr addr)
{
    const unsigned set = setIndex(addr);
    if (!setLive(set))
        makeSetLive(set);
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.assoc;
    std::size_t victim = base;
    for (unsigned way = 0; way < params_.assoc; ++way) {
        if (tags_[base + way] == invalidAddr) {
            victim = base + way;
            break;
        }
        if (lruStamps_[base + way] < lruStamps_[victim])
            victim = base + way;
    }
    if (tags_[victim] != invalidAddr) {
        ++evictions_;
        if (monitor_) [[unlikely]]
            monitor_->recordEviction(monitorStructure_, set);
    }
    tags_[victim] = blockAlign(addr);
    dirty_[victim] = 0;
    lruStamps_[victim] = ++lruClock_;
}

bool
Cache::invalidate(Addr addr)
{
    const unsigned way = findWay(addr);
    if (way == invalidWay)
        return false;
    const std::size_t idx =
        static_cast<std::size_t>(setIndex(addr)) * params_.assoc + way;
    tags_[idx] = invalidAddr;
    dirty_[idx] = 0;
    ++invalidations_;
    if (monitor_) [[unlikely]]
        monitor_->recordInvalidation(monitorStructure_, setIndex(addr));
    return true;
}

void
Cache::invalidateAll()
{
    // Every way of a set is invalid when makeSetLive() re-initializes
    // it, and fill() prefers the first invalid way, so a set's stale
    // LRU stamps can never influence a victim choice.
    std::fill(liveSets_.begin(), liveSets_.end(), 0);
}

std::vector<Addr>
Cache::setContents(unsigned set) const
{
    if (set >= numSets_)
        csd_panic("Cache::setContents: bad set ", set);
    std::vector<Addr> contents;
    if (!setLive(set))
        return contents;
    const std::size_t base =
        static_cast<std::size_t>(set) * params_.assoc;
    for (unsigned way = 0; way < params_.assoc; ++way)
        if (tags_[base + way] != invalidAddr)
            contents.push_back(tags_[base + way]);
    return contents;
}

} // namespace csd
