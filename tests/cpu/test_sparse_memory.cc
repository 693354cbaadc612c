#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "common/random.hh"
#include "cpu/arch_state.hh"
#include "isa/program.hh"

namespace csd
{
namespace
{

/**
 * SparseMemory copies program images one page-sized chunk at a time and
 * maps zero spans whole, and ArchState::loadProgram installs a
 * Program's data image (initialized chunks and zero spans) through
 * them. These tests hold both to a byte-by-byte reference.
 */

constexpr Addr page = SparseMemory::pageSize;

std::vector<std::uint8_t>
pattern(std::size_t len, std::uint64_t seed)
{
    Random rng(seed);
    std::vector<std::uint8_t> bytes(len);
    for (std::uint8_t &b : bytes)
        b = static_cast<std::uint8_t>(rng.next32() | 1);  // never 0
    return bytes;
}

/** Every byte of [addr - pad, addr + len + pad) reads back as written
 *  (and 0 outside the blob). */
void
expectBlob(const SparseMemory &mem, Addr addr,
           const std::vector<std::uint8_t> &bytes, Addr pad = 16)
{
    for (Addr a = addr - pad; a < addr + bytes.size() + pad; ++a) {
        const bool inside = a >= addr && a < addr + bytes.size();
        ASSERT_EQ(mem.readByte(a), inside ? bytes[a - addr] : 0)
            << "at 0x" << std::hex << a;
    }
}

TEST(SparseMemoryBlob, StraddlesPages)
{
    SparseMemory mem;
    const Addr addr = 3 * page - 5;
    const auto bytes = pattern(2 * page + 10, 1);  // pages 2, 3, 4, 5
    mem.writeBlob(addr, bytes.data(), bytes.size());
    EXPECT_EQ(mem.mappedPages(), 4u);
    expectBlob(mem, addr, bytes);
    // A multi-byte read across the page boundary sees both pages.
    EXPECT_EQ(mem.read(3 * page - 2, 4),
              static_cast<std::uint64_t>(bytes[3]) |
                  static_cast<std::uint64_t>(bytes[4]) << 8 |
                  static_cast<std::uint64_t>(bytes[5]) << 16 |
                  static_cast<std::uint64_t>(bytes[6]) << 24);
}

TEST(SparseMemoryBlob, UnalignedStartWithinOnePage)
{
    SparseMemory mem;
    const auto bytes = pattern(100, 2);
    mem.writeBlob(0x10007, bytes.data(), bytes.size());
    EXPECT_EQ(mem.mappedPages(), 1u);
    expectBlob(mem, 0x10007, bytes);
}

TEST(SparseMemoryBlob, ExactlyOnePage)
{
    SparseMemory mem;
    const auto bytes = pattern(page, 3);
    mem.writeBlob(5 * page, bytes.data(), bytes.size());
    EXPECT_EQ(mem.mappedPages(), 1u);
    expectBlob(mem, 5 * page, bytes);

    // One page's worth, unaligned, spans two pages.
    SparseMemory shifted;
    shifted.writeBlob(5 * page + 1, bytes.data(), bytes.size());
    EXPECT_EQ(shifted.mappedPages(), 2u);
    expectBlob(shifted, 5 * page + 1, bytes);
}

TEST(SparseMemoryBlob, EmptyMapsNothing)
{
    SparseMemory mem;
    const std::uint8_t byte = 0x5a;
    mem.writeBlob(0x2000, &byte, 0);
    mem.fillZero(0x2000, 0);
    EXPECT_EQ(mem.mappedPages(), 0u);
    EXPECT_EQ(mem.readByte(0x2000), 0u);
}

TEST(SparseMemoryBlob, MatchesByteWrites)
{
    // Random blobs at random (often unaligned, overlapping) addresses:
    // the page-wise copy must leave the same image as writeByte().
    Random rng(7);
    SparseMemory blob_mem;
    SparseMemory byte_mem;
    for (unsigned i = 0; i < 40; ++i) {
        const Addr addr = 0x100000 + rng.below(6 * page);
        const auto bytes = pattern(rng.below(3 * page), 100 + i);
        blob_mem.writeBlob(addr, bytes.data(), bytes.size());
        for (std::size_t j = 0; j < bytes.size(); ++j)
            byte_mem.writeByte(addr + j, bytes[j]);
    }
    EXPECT_EQ(blob_mem.mappedPages(), byte_mem.mappedPages());
    for (Addr a = 0x100000 - 64; a < 0x100000 + 10 * page; ++a)
        ASSERT_EQ(blob_mem.readByte(a), byte_mem.readByte(a))
            << "at 0x" << std::hex << a;
}

TEST(SparseMemoryBlob, FillZeroMapsAndClears)
{
    SparseMemory mem;
    const auto bytes = pattern(3 * page, 4);
    mem.writeBlob(0x40000, bytes.data(), bytes.size());
    // Zero a span that starts and ends mid-page; its neighbours keep
    // their bytes.
    mem.fillZero(0x40000 + 100, 2 * page);
    for (Addr a = 0x40000; a < 0x40000 + bytes.size(); ++a) {
        const bool zeroed = a >= 0x40000 + 100 && a < 0x40000 + 100 + 2 * page;
        ASSERT_EQ(mem.readByte(a), zeroed ? 0 : bytes[a - 0x40000])
            << "at 0x" << std::hex << a;
    }
    // A span over fresh memory maps every page it touches.
    const std::size_t before = mem.mappedPages();
    mem.fillZero(0x80000 + 1, 3 * page);
    EXPECT_EQ(mem.mappedPages(), before + 4);
}

TEST(ProgramImage, ReserveDataIsAZeroSpan)
{
    ProgramBuilder builder;
    builder.halt();
    const Addr a = builder.defineData("a", {1, 2, 3});
    const Addr span = builder.reserveData("span", 3 * page + 100);
    const Addr b = builder.defineData("b", {4, 5});
    const Program prog = builder.build();

    ASSERT_EQ(prog.data().size(), 3u);
    const DataChunk &chunk = prog.data()[1];
    EXPECT_TRUE(chunk.zero());
    EXPECT_TRUE(chunk.bytes.empty());  // no zero vector materialized
    EXPECT_EQ(chunk.addr, span);
    EXPECT_EQ(chunk.size, 3 * page + 100);
    EXPECT_EQ(chunk.range(), prog.symbol("span"));
    EXPECT_FALSE(prog.data()[0].zero());

    // Chunks do not overlap their neighbours.
    EXPECT_LE(a + 3, span);
    EXPECT_LE(chunk.range().end, b);
    EXPECT_FALSE(prog.data()[0].range().overlaps(chunk.range()));
    EXPECT_FALSE(chunk.range().overlaps(prog.data()[2].range()));
}

TEST(ProgramImage, ZeroSpanLoadsMappedZeroAndWritable)
{
    ProgramBuilder builder;
    builder.halt();
    builder.defineData("a", {1, 2, 3}, 1);
    const Addr span = builder.reserveData("span", 2 * page + 7, 1);
    builder.defineData("b", {9}, 1);
    const Program prog = builder.build();
    const AddrRange range = prog.symbol("span");
    const AddrRange a = prog.symbol("a");
    const AddrRange b = prog.symbol("b");

    ArchState state;
    state.loadProgram(prog);
    // Every page of the span is mapped at load time, not on first use.
    const std::size_t span_pages =
        ((range.end - 1) >> SparseMemory::pageShift) -
        (span >> SparseMemory::pageShift) + 1;
    EXPECT_GE(state.mem.mappedPages(), span_pages);
    for (Addr addr = range.start; addr < range.end; ++addr)
        ASSERT_EQ(state.mem.readByte(addr), 0u);
    // Neighbours packed against the span keep their bytes.
    EXPECT_EQ(state.mem.readByte(a.end - 1), 3u);
    EXPECT_EQ(state.mem.readByte(b.start), 9u);

    state.mem.write(range.start + page - 2, 4, 0xdeadbeef);
    EXPECT_EQ(state.mem.read(range.start + page - 2, 4), 0xdeadbeefu);
    EXPECT_EQ(state.mem.readByte(b.start), 9u);

    // Reloading restores the image: the span is zero again.
    state.loadProgram(prog);
    EXPECT_EQ(state.mem.read(range.start + page - 2, 4), 0u);
}

TEST(ProgramImage, LoadedImageMatchesByteReference)
{
    // Initialized chunks and zero spans of random sizes and alignments,
    // loaded over memory that already holds garbage where the image
    // goes: the result must equal a byte-by-byte reference.
    Random rng(11);
    ProgramBuilder builder;
    builder.halt();
    std::map<Addr, std::uint8_t> reference;
    for (unsigned i = 0; i < 24; ++i) {
        const std::string name = "d" + std::to_string(i);
        const unsigned align = 1u << rng.below(8);
        const std::size_t size = rng.below(2 * page);
        Addr addr;
        if (rng.chance(0.5)) {
            const auto bytes = pattern(size, 200 + i);
            addr = builder.defineData(name, bytes, align);
            for (std::size_t j = 0; j < size; ++j)
                reference[addr + j] = bytes[j];
        } else {
            addr = builder.reserveData(name, size, align);
            for (std::size_t j = 0; j < size; ++j)
                reference[addr + j] = 0;
        }
    }
    const Program prog = builder.build();
    ASSERT_FALSE(reference.empty());
    const Addr lo = reference.begin()->first;
    const Addr hi = reference.rbegin()->first + 1;

    ArchState state;
    const auto garbage = pattern(hi - lo, 99);
    state.mem.writeBlob(lo, garbage.data(), garbage.size());
    state.loadProgram(prog);
    for (Addr addr = lo - 64; addr < hi + 64; ++addr) {
        auto it = reference.find(addr);
        const std::uint8_t expected =
            it != reference.end()
                ? it->second
                : (addr >= lo && addr < hi ? garbage[addr - lo] : 0);
        ASSERT_EQ(state.mem.readByte(addr), expected)
            << "at 0x" << std::hex << addr;
    }
}

} // namespace
} // namespace csd
