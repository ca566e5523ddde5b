/**
 * @file
 * Fixed-capacity descriptor rings.
 *
 * U-Net message queues are bounded rings shared between the application
 * and the agent servicing them (kernel or NIC co-processor). A full
 * send queue pushes back on the sender; a full receive queue makes the
 * servicer drop messages (upper layers — Active Messages — retransmit).
 */

#ifndef UNET_UNET_QUEUES_HH
#define UNET_UNET_QUEUES_HH

#include <cstddef>
#include <optional>
#include <vector>

#include "sim/logging.hh"
#include "sim/perturb.hh"

namespace unet {

/** A bounded FIFO ring of descriptors. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity)
        : _capacity(capacity), slots(capacity)
    {
        if (capacity == 0)
            UNET_PANIC("ring with zero capacity");
        // Third perturbation axis (ring slot-reuse offsets): under a
        // nonzero salt, start the cursors at a salted slot so each
        // logical push lands in a different physical slot per salt.
        // FIFO semantics are unaffected — only code wrongly keying
        // behaviour off slot indices diverges.
        if (std::uint64_t s = sim::perturb::salt())
            head = tail = static_cast<std::size_t>(
                sim::perturb::mix(s, sim::perturb::nextRingSequence()) %
                _capacity);
    }

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == _capacity; }

    /** Push a descriptor; @return false if full. */
    bool
    push(const T &item)
    {
        if (full())
            return false;
        slots[tail] = item;
        tail = (tail + 1) % _capacity;
        ++count;
        return true;
    }

    /** Pop the oldest descriptor, if any. */
    std::optional<T>
    pop()
    {
        if (empty())
            return std::nullopt;
        T item = std::move(slots[head]);
        // Scrub the vacated slot: a stale descriptor left behind is
        // exactly the kind of dangling buffer reference the ownership
        // checker exists to catch, and scrubbing makes any use of it
        // fail loudly instead of silently re-sending old data.
        slots[head] = T{};
        head = (head + 1) % _capacity;
        --count;
        return item;
    }

    /** Peek at the oldest descriptor; ring must not be empty. */
    const T &
    front() const
    {
        if (empty())
            UNET_PANIC("front() on empty ring");
        return slots[head];
    }

  private:
    // Layout: every push/pop reads _capacity and writes one cursor, so
    // the cursors and capacity share the leading cache line; the slot
    // storage pointer follows.
    std::size_t _capacity;
    std::size_t head = 0;
    std::size_t tail = 0;
    std::size_t count = 0;
    std::vector<T> slots;
};

} // namespace unet

#endif // UNET_UNET_QUEUES_HH
