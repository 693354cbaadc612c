/**
 * @file
 * Architectural (plus decoder-temporary) state and the sparse memory
 * image of the simulated machine.
 */

#ifndef CSD_CPU_ARCH_STATE_HH
#define CSD_CPU_ARCH_STATE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "isa/registers.hh"
#include "uop/uop.hh"

namespace csd
{

/** A 128-bit vector register value. */
struct Vec128
{
    std::array<std::uint8_t, 16> bytes{};

    /** Read lane @p idx of width @p lane bytes (little-endian). */
    std::uint64_t
    lane(unsigned lane_width, unsigned idx) const
    {
        std::uint64_t val = 0;
        const unsigned base = lane_width * idx;
        for (unsigned i = 0; i < lane_width; ++i)
            val |= static_cast<std::uint64_t>(bytes[base + i]) << (8 * i);
        return val;
    }

    /** Write lane @p idx of width @p lane bytes. */
    void
    setLane(unsigned lane_width, unsigned idx, std::uint64_t val)
    {
        const unsigned base = lane_width * idx;
        for (unsigned i = 0; i < lane_width; ++i)
            bytes[base + i] = static_cast<std::uint8_t>(val >> (8 * i));
    }

    unsigned numLanes(unsigned lane_width) const { return 16 / lane_width; }

    bool
    operator==(const Vec128 &other) const
    {
        return bytes == other.bytes;
    }
};

/** Byte-addressable sparse memory backed by 4 KiB pages. */
class SparseMemory
{
  public:
    static constexpr unsigned pageShift = 12;
    static constexpr std::size_t pageSize = 1u << pageShift;

    /** Read @p size bytes (1..16) little-endian; unmapped bytes read 0. */
    std::uint64_t
    read(Addr addr, unsigned size) const
    {
        if (size > 8)
            csd_panic("SparseMemory::read: size > 8, use readVec");
        const std::size_t off = addr & (pageSize - 1);
        if (off + size <= pageSize) {  // one page lookup, not per byte
            const Page *page = findPage(addr);
            if (!page)
                return 0;
            const std::uint8_t *bytes = page->data() + off;
            // The memory image is little-endian by definition, so on a
            // little-endian host the bytes are the value.
            if constexpr (std::endian::native == std::endian::little) {
                std::uint64_t val = 0;
                std::memcpy(&val, bytes, size);
                return val;
            }
            std::uint64_t val = 0;
            for (unsigned i = 0; i < size; ++i)
                val |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
            return val;
        }
        std::uint64_t val = 0;
        for (unsigned i = 0; i < size; ++i)
            val |= static_cast<std::uint64_t>(readByte(addr + i)) << (8 * i);
        return val;
    }

    /** Write the low @p size bytes of @p val little-endian. */
    void
    write(Addr addr, unsigned size, std::uint64_t val)
    {
        if (size > 8)
            csd_panic("SparseMemory::write: size > 8, use writeVec");
        const std::size_t off = addr & (pageSize - 1);
        if (off + size <= pageSize) {
            std::uint8_t *bytes = getPage(addr).data() + off;
            if constexpr (std::endian::native == std::endian::little) {
                std::memcpy(bytes, &val, size);
                return;
            }
            for (unsigned i = 0; i < size; ++i)
                bytes[i] = static_cast<std::uint8_t>(val >> (8 * i));
            return;
        }
        for (unsigned i = 0; i < size; ++i)
            writeByte(addr + i, static_cast<std::uint8_t>(val >> (8 * i)));
    }

    Vec128
    readVec(Addr addr) const
    {
        Vec128 vec;
        const std::size_t off = addr & (pageSize - 1);
        if (off + 16 <= pageSize) {
            const Page *page = findPage(addr);
            if (page) {
                const std::uint8_t *bytes = page->data() + off;
                for (unsigned i = 0; i < 16; ++i)
                    vec.bytes[i] = bytes[i];
            }
            return vec;
        }
        for (unsigned i = 0; i < 16; ++i)
            vec.bytes[i] = readByte(addr + i);
        return vec;
    }

    void
    writeVec(Addr addr, const Vec128 &vec)
    {
        const std::size_t off = addr & (pageSize - 1);
        if (off + 16 <= pageSize) {
            std::uint8_t *bytes = getPage(addr).data() + off;
            for (unsigned i = 0; i < 16; ++i)
                bytes[i] = vec.bytes[i];
            return;
        }
        for (unsigned i = 0; i < 16; ++i)
            writeByte(addr + i, vec.bytes[i]);
    }

    std::uint8_t
    readByte(Addr addr) const
    {
        const Page *page = findPage(addr);
        return page ? (*page)[addr & (pageSize - 1)] : 0;
    }

    void
    writeByte(Addr addr, std::uint8_t val)
    {
        Page &page = getPage(addr);
        page[addr & (pageSize - 1)] = val;
    }

    /** Copy a byte buffer into memory, one page-sized chunk at a time. */
    void
    writeBlob(Addr addr, const std::uint8_t *data, std::size_t len)
    {
        forEachPageRun(addr, len, [&](std::uint8_t *dst, std::size_t n) {
            std::memcpy(dst, data, n);
            data += n;
        });
    }

    /** Zero @p len bytes at @p addr, mapping every page they touch. */
    void
    fillZero(Addr addr, std::size_t len)
    {
        forEachPageRun(addr, len, [](std::uint8_t *dst, std::size_t n) {
            std::memset(dst, 0, n);
        });
    }

    /** Number of pages mapped so far. */
    std::size_t mappedPages() const { return pages_.size(); }

  private:
    using Page = std::array<std::uint8_t, pageSize>;

    /** Call @p fn(dst, n) for each within-page run of [addr, addr+len),
     *  mapping its page first. */
    template <typename Fn>
    void
    forEachPageRun(Addr addr, std::size_t len, Fn &&fn)
    {
        while (len > 0) {
            const std::size_t off = addr & (pageSize - 1);
            const std::size_t n = std::min(len, pageSize - off);
            fn(getPage(addr).data() + off, n);
            addr += n;
            len -= n;
        }
    }

    // Direct-mapped page cache: the hot loops alternate between a
    // handful of pages (stack, state block, lookup tables) millions of
    // times, so a single remembered page ping-pongs while a few slots
    // indexed by the low page-number bits catch all of them. Pages are
    // never freed and unique_ptr targets don't move on rehash, so the
    // raw pointers stay valid for the map's lifetime. Misses fall
    // through to the hash map; a nullptr cached page just means "not
    // cached", never "known absent".
    static constexpr std::size_t pageCacheSlots = 16;  // power of two

    static std::size_t
    pageCacheSlot(Addr page_no)
    {
        return static_cast<std::size_t>(page_no) & (pageCacheSlots - 1);
    }

    const Page *
    findPage(Addr addr) const
    {
        const Addr page_no = addr >> pageShift;
        const std::size_t slot = pageCacheSlot(page_no);
        if (cachedPageNo_[slot] == page_no)
            return cachedPage_[slot];
        auto it = pages_.find(page_no);
        if (it == pages_.end())
            return nullptr;
        cachedPageNo_[slot] = page_no;
        cachedPage_[slot] = it->second.get();
        return cachedPage_[slot];
    }

    Page &
    getPage(Addr addr)
    {
        const Addr page_no = addr >> pageShift;
        const std::size_t slot = pageCacheSlot(page_no);
        if (cachedPageNo_[slot] == page_no)
            return *cachedPage_[slot];
        auto &map_slot = pages_[page_no];
        if (!map_slot)
            map_slot = std::make_unique<Page>();  // value-initialized: zero
        cachedPageNo_[slot] = page_no;
        cachedPage_[slot] = map_slot.get();
        return *map_slot;
    }

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
    // invalidAddr never equals a real page number (addresses are
    // shifted right by pageShift), so it marks an empty slot.
    mutable std::array<Addr, pageCacheSlots> cachedPageNo_ = [] {
        std::array<Addr, pageCacheSlots> init;
        init.fill(invalidAddr);
        return init;
    }();
    mutable std::array<Page *, pageCacheSlots> cachedPage_{};
};

/**
 * Full machine state visible to micro-ops: architectural registers,
 * decoder temporaries, flags, PC, and memory.
 */
class ArchState
{
  public:
    ArchState() { reset(); }

    void
    reset()
    {
        intRegs_.fill(0);
        for (Vec128 &v : vecRegs_)
            v = Vec128();
        flags = RFlags();
        pc = 0;
        halted = false;
        // Give the stack somewhere sane to live.
        intRegs_[static_cast<unsigned>(Gpr::Rsp)] = 0x7ffff000;
    }

    /**
     * Load a program's data image and set the entry PC. A zero span's
     * pages are mapped (and zeroed) here, not left to the first access:
     * the page cache never remembers an absent page, so an unmapped
     * span would cost a hash lookup on every read of the run.
     */
    void
    loadProgram(const Program &prog)
    {
        for (const DataChunk &chunk : prog.data()) {
            if (chunk.zero())
                mem.fillZero(chunk.addr, chunk.size);
            else
                mem.writeBlob(chunk.addr, chunk.bytes.data(), chunk.size);
        }
        pc = prog.entry();
        halted = false;
    }

    std::uint64_t
    readInt(const RegId &reg) const
    {
        if (reg.cls != RegClass::Int || reg.idx >= numIntUopRegs)
            csd_panic("ArchState::readInt: bad reg");
        return intRegs_[reg.idx];
    }

    void
    writeInt(const RegId &reg, std::uint64_t val)
    {
        if (reg.cls != RegClass::Int || reg.idx >= numIntUopRegs)
            csd_panic("ArchState::writeInt: bad reg");
        intRegs_[reg.idx] = val;
    }

    const Vec128 &
    readVecReg(const RegId &reg) const
    {
        if (reg.cls != RegClass::Vec || reg.idx >= numVecUopRegs)
            csd_panic("ArchState::readVecReg: bad reg");
        return vecRegs_[reg.idx];
    }

    void
    writeVecReg(const RegId &reg, const Vec128 &val)
    {
        if (reg.cls != RegClass::Vec || reg.idx >= numVecUopRegs)
            csd_panic("ArchState::writeVecReg: bad reg");
        vecRegs_[reg.idx] = val;
    }

    std::uint64_t gpr(Gpr reg) const { return readInt(intReg(reg)); }
    void setGpr(Gpr reg, std::uint64_t val) { writeInt(intReg(reg), val); }

    const Vec128 &xmm(Xmm reg) const { return readVecReg(vecReg(reg)); }
    void setXmm(Xmm reg, const Vec128 &v) { writeVecReg(vecReg(reg), v); }

    RFlags flags;
    Addr pc = 0;
    bool halted = false;
    /** Cycle count visible to rdtsc (updated by the timing driver). */
    Tick cycleHint = 0;
    SparseMemory mem;

  private:
    std::array<std::uint64_t, numIntUopRegs> intRegs_;
    std::array<Vec128, numVecUopRegs> vecRegs_;
};

} // namespace csd

#endif // CSD_CPU_ARCH_STATE_HH
