/**
 * @file
 * Storage for simulation hot paths.
 *
 * SlotRing is a FIFO ring whose slots stay alive across reuse: popping
 * the front only advances the head index, so the element object (and any
 * heap capacity it owns, e.g. a payload std::vector) is recycled by the
 * next assignment into that slot. In steady state — once the ring has
 * grown to the workload's high-water mark — pushing and popping perform
 * zero allocations.
 *
 * MappedBuffer holds the large, sparsely touched buffers (host arenas,
 * Split-C heaps, fiber stacks) on their own lazily zeroed mappings.
 */

#ifndef UNET_SIM_POOL_HH
#define UNET_SIM_POOL_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace unet::sim {

/** FIFO ring with live, capacity-retaining slots. */
template <typename T>
class SlotRing
{
  public:
    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }
    std::size_t capacity() const { return slots.size(); }

    /**
     * Append a slot and return it for assignment. The returned object
     * is a recycled previous occupant (or default-constructed on first
     * use), so vector-backed members keep their capacity.
     */
    T &
    pushSlot()
    {
        if (_count == slots.size())
            grow();
        T &slot = slots[(head + _count) & (slots.size() - 1)];
        ++_count;
        return slot;
    }

    /** The oldest element. Undefined when empty. */
    T &front() { return slots[head]; }
    const T &front() const { return slots[head]; }

    /** The @p i-th oldest element (0 == front). Undefined past size. */
    T &at(std::size_t i) { return slots[(head + i) & (slots.size() - 1)]; }

    /** Retire the oldest element, leaving its slot alive for reuse. */
    void
    popFront()
    {
        head = (head + 1) & (slots.size() - 1);
        --_count;
    }

  private:
    void
    grow()
    {
        std::size_t cap = slots.empty() ? 8 : slots.size() * 2;
        std::vector<T> bigger(cap);
        for (std::size_t i = 0; i < _count; ++i)
            bigger[i] = std::move(slots[(head + i) & (slots.size() - 1)]);
        slots.swap(bigger);
        head = 0;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t _count = 0;
};

/**
 * A large byte buffer on its own anonymous private mapping.
 *
 * Host memory arenas, Split-C heaps and fiber stacks are megabytes,
 * of which a simulation touches a few pages. The kernel backs each
 * page with zeros on first touch, so the buffer reads zero throughout
 * without being cleared, and only the pages written become resident.
 * Destruction unmaps it. calloc() would not do: glibc clears a chunk
 * it did not just map, and its dynamic mmap threshold moves 8 MiB
 * blocks onto the heap after the first one is freed.
 *
 * Under the UNET_PERTURB run mode (sim/perturb.hh) the usable area
 * starts after a salted pad of 0..31 cache lines, so buffers land at
 * different addresses under different salts. Code whose simulated
 * behaviour leaks host addresses (pointer-keyed iteration, hashing a
 * pointer into a decision) then diverges between salts and is caught
 * by the determinism suites.
 */
class MappedBuffer
{
  public:
    explicit MappedBuffer(std::size_t size);
    ~MappedBuffer();

    MappedBuffer(const MappedBuffer &) = delete;
    MappedBuffer &operator=(const MappedBuffer &) = delete;

    unsigned char *data() { return mem; }
    const unsigned char *data() const { return mem; }
    std::size_t size() const { return bytes; }

  private:
    unsigned char *base; ///< start of the mapping, owned
    unsigned char *mem;  ///< usable storage (= base + salted pad)
    std::size_t bytes;   ///< usable size (excludes the pad)
};

} // namespace unet::sim

#endif // UNET_SIM_POOL_HH
