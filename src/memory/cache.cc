#include "memory/cache.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <sstream>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace csd
{

static_assert(sizeof(Cache::Tag) + sizeof(Cache::Stamp) == 8,
              "a stored way costs 8 host bytes");

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
    liveSets_.assign((numSets_ + 63) / 64, 0);

    stats_.addCounter("accesses", &accesses_, "demand accesses");
    stats_.addCounter("misses", &misses_, "demand misses");
    stats_.addCounter("write_accesses", &writeAccesses_, "write accesses");
    stats_.addCounter("evictions", &evictions_, "capacity/conflict evictions");
    stats_.addCounter("invalidations", &invalidations_,
                      "explicit invalidations (clflush)");
}

void
Cache::addressOutOfRange(Addr addr) const
{
    std::ostringstream hex;
    hex << std::hex << "0x" << addr << " (tags cover addresses below 0x"
        << maxAddr << ")";
    csd_fatal("Cache ", params_.name, ": address ", hex.str());
}

void
Cache::Unmap::operator()(std::uint32_t *rows) const
{
    munmap(rows, bytes);
}

Cache::Rows
Cache::mapRows(unsigned width) const
{
    const std::size_t bytes = rowsBytes(width);
    void *rows = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (rows == MAP_FAILED)
        csd_fatal("Cache ", params_.name, ": cannot map ", bytes,
                  " bytes of ways: ", std::strerror(errno));
    return Rows(static_cast<std::uint32_t *>(rows), Unmap{bytes});
}

void
Cache::makeSetLive(unsigned set)
{
    if (!rows_)
        rows_ = mapRows(width_);
    std::fill_n(tagsOf(set), width_, emptyTag);
    std::fill_n(stampsOf(set), width_, 0);
    liveSets_[set >> 6] |= std::uint64_t{1} << (set & 63);
}

void
Cache::widen()
{
    const unsigned old_width = width_;
    const unsigned new_width = std::min(2 * old_width, params_.assoc);
    Rows rows = mapRows(new_width);
    for (std::size_t word = 0; word < liveSets_.size(); ++word) {
        for (std::uint64_t bits = liveSets_[word]; bits; bits &= bits - 1) {
            const std::size_t set = word * 64 + std::countr_zero(bits);
            const std::uint32_t *from = &rows_[set * 2 * old_width];
            std::uint32_t *to = &rows[set * 2 * new_width];
            std::copy_n(from, old_width, to);
            std::fill_n(to + old_width, new_width - old_width, emptyTag);
            std::copy_n(from + old_width, old_width, to + new_width);
            std::fill_n(to + new_width + old_width, new_width - old_width,
                        0);
        }
    }
    rows_ = std::move(rows);
    width_ = new_width;
}

void
Cache::renumberStamps()
{
    std::vector<unsigned> order;
    order.reserve(width_);
    for (unsigned set = 0; set < numSets_; ++set) {
        if (!setLive(set))
            continue;
        const Tag *tags = tagsOf(set);
        Stamp *stamps = stampsOf(set);
        order.clear();
        for (unsigned way = 0; way < width_; ++way) {
            if (tags[way] == emptyTag)
                stamps[way] = 0;
            else
                order.push_back(way);
        }
        std::sort(order.begin(), order.end(),
                  [stamps](unsigned a, unsigned b) {
                      return stamps[a] < stamps[b];
                  });
        Stamp rank = 0;
        for (unsigned way : order)
            stamps[way] = ++rank;
    }
    lruClock_ = params_.assoc;
}

bool
Cache::contains(Addr addr) const
{
    return findWay(addr) != invalidWay;
}

void
Cache::fill(Addr addr)
{
    const Tag tag = tagOf(addr);
    const unsigned set = tag & (numSets_ - 1);
    if (!setLive(set))
        makeSetLive(set);
    Tag *tags = tagsOf(set);
    Stamp *stamps = stampsOf(set);
    unsigned victim = 0;
    unsigned way = 0;
    for (; way < width_; ++way) {
        if (tags[way] == emptyTag)
            break;
        if (stamps[way] < stamps[victim])
            victim = way;
    }
    if (way == width_ && width_ < params_.assoc) {
        // Every stored way is valid but the set has more: store them;
        // the first new way is the first invalid one.
        widen();
        tags = tagsOf(set);
        stamps = stampsOf(set);
    }
    if (way < width_) {
        victim = way;  // the first invalid way
    } else {
        ++evictions_;
        if (monitor_) [[unlikely]]
            monitor_->recordEviction(monitorStructure_, set);
    }
    tags[victim] = tag;
    stamps[victim] = nextStamp();
}

bool
Cache::invalidate(Addr addr)
{
    const unsigned way = findWay(addr);
    if (way == invalidWay)
        return false;
    tagsOf(setIndex(addr))[way] = emptyTag;
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
    const Tag *tags = tagsOf(set);
    for (unsigned way = 0; way < width_; ++way)
        if (tags[way] != emptyTag)
            contents.push_back(static_cast<Addr>(tags[way]) * cacheBlockSize);
    return contents;
}

} // namespace csd
