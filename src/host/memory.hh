/**
 * @file
 * Host memory arena.
 *
 * A flat, bounds-checked byte array per host. Device descriptor rings,
 * kernel receive buffers, and U-Net endpoint buffer areas are carved out
 * of it with a bump allocator, so DMA targets are real bytes at real
 * offsets — a NIC writing outside its buffer trips a panic instead of
 * silently corrupting state. The arena is its own anonymous mapping
 * (sim::MappedBuffer): every byte reads zero until written, and only
 * the pages the host touches become resident.
 */

#ifndef UNET_HOST_MEMORY_HH
#define UNET_HOST_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sim/logging.hh"
#include "sim/pool.hh"

namespace unet::host {

/** Byte-addressable host memory with a bump allocator. */
class Memory
{
  public:
    explicit Memory(std::size_t size = 4 * 1024 * 1024) : bytes(size) {}

    std::size_t size() const { return bytes.size(); }

    /** Bytes still available for allocation. */
    std::size_t remaining() const { return bytes.size() - brk; }

    /**
     * Allocate @p len bytes aligned to @p align (a power of two).
     * @return the offset of the new region.
     */
    std::size_t
    alloc(std::size_t len, std::size_t align = 8)
    {
        if (align == 0 || (align & (align - 1)) != 0)
            UNET_PANIC("allocation alignment must be a power of two");
        std::size_t off = (brk + align - 1) & ~(align - 1);
        if (off + len > bytes.size())
            UNET_FATAL("host memory exhausted: need ", len, " bytes, ",
                       remaining(), " remain of ", bytes.size());
        brk = off + len;
        return off;
    }

    /** Bounds-checked view of [offset, offset+len). */
    std::span<std::uint8_t>
    region(std::size_t offset, std::size_t len)
    {
        if (offset + len > bytes.size())
            UNET_PANIC("memory access out of bounds: [", offset, ", ",
                       offset + len, ") of ", bytes.size());
        return {bytes.data() + offset, len};
    }

    /** Read-only bounds-checked view. */
    std::span<const std::uint8_t>
    region(std::size_t offset, std::size_t len) const
    {
        if (offset + len > bytes.size())
            UNET_PANIC("memory access out of bounds: [", offset, ", ",
                       offset + len, ") of ", bytes.size());
        return {bytes.data() + offset, len};
    }

    /** Copy @p data into memory at @p offset. */
    void
    write(std::size_t offset, std::span<const std::uint8_t> data)
    {
        auto dst = region(offset, data.size());
        std::memcpy(dst.data(), data.data(), data.size());
    }

    /** Copy @p len bytes out of memory at @p offset. */
    std::vector<std::uint8_t>
    read(std::size_t offset, std::size_t len) const
    {
        auto src = region(offset, len);
        return {src.begin(), src.end()};
    }

  private:
    sim::MappedBuffer bytes;
    std::size_t brk = 0;
};

} // namespace unet::host

#endif // UNET_HOST_MEMORY_HH
