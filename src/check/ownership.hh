/**
 * @file
 * Buffer-ownership invariant checking.
 *
 * The paper's protection claim is that the application and the agent
 * servicing its queues (kernel trap handler or NIC firmware) share a
 * buffer area without being able to corrupt each other. This tracker
 * models who owns each region of an endpoint's buffer area and panics
 * on illegal transitions — a double-posted send fragment, a free-queue
 * buffer freed while the agent is filling it, an out-of-bounds
 * descriptor — which would otherwise silently pass every timing test.
 *
 * Lifecycle (one region at a time; regions are disjoint by
 * construction):
 *
 *     app-owned (untracked)
 *       --postSend-->  TxPosted   --claimSend-->  TxAgent
 *       TxPosted/TxAgent --releaseSend--> app-owned
 *       --postFree-->  RxPosted   --claimRecv-->  RxAgent
 *       RxAgent --deliver--> Delivered --consume--> app-owned
 *       RxAgent --unclaimRecv--> RxPosted      (agent drop path)
 *       RxAgent --releaseRecv--> app-owned     (buffer lost to a full
 *                                               free queue)
 *
 * Application-side entry points (postSend, postFree) are strict: any
 * overlap with a tracked region panics. Agent-side transitions are
 * lenient about *untracked* regions — test harnesses and boot-time code
 * legitimately stuff rings directly — but strict about wrong-state
 * regions, which is where real corruption shows up.
 *
 * Compiled to no-ops when UNET_CHECK is 0 (see the top-level
 * CMakeLists.txt option).
 */

#ifndef UNET_CHECK_OWNERSHIP_HH
#define UNET_CHECK_OWNERSHIP_HH

#include <cstddef>
#include <cstdint>
#include <map>

#include "check/enroll.hh"
#include "unet/types.hh"

namespace unet::check {

/** Who holds a tracked buffer-area region. */
enum class BufState : std::uint8_t {
    TxPosted,  ///< fragment of a descriptor in the send queue
    TxAgent,   ///< send payload being gathered by the servicing agent
    RxPosted,  ///< buffer in the free queue, available for receives
    RxAgent,   ///< claimed by the agent for an incoming message
    Delivered, ///< referenced by a descriptor in the receive queue
};

/** Human-readable state name for diagnostics. */
const char *name(BufState state);

#if defined(UNET_CHECK) && UNET_CHECK

/**
 * Per-buffer-area ownership state machine.
 *
 * Enrolled in the global registry (check/enroll.hh): the explorer
 * folds every live tracker's region table into its state digest.
 * Enrollment makes trackers non-copyable; they live inside Endpoint,
 * which is already pinned.
 */
class OwnershipTracker : public Enrolled<OwnershipTracker>
{
  public:
    /** @param area_bytes Size of the buffer area being guarded. */
    explicit OwnershipTracker(std::size_t area_bytes)
        : areaBytes(area_bytes)
    {}

    /** @name Application-side transitions (strict). @{ */

    /** A send descriptor fragment entered the send queue. */
    void postSend(BufferRef ref);

    /** A buffer entered the free queue. */
    void postFree(BufferRef ref);

    /** @} */

    /** @name Agent-side transitions (lenient about untracked refs). @{ */

    /** The agent popped the descriptor; payload gather is in progress. */
    void claimSend(BufferRef ref);

    /** The agent has fully read the payload out of the region. */
    void releaseSend(BufferRef ref);

    /** The agent popped @p ref from the free queue for an rx message. */
    void claimRecv(BufferRef ref);

    /** Drop path: the agent returned @p ref to the free queue. */
    void unclaimRecv(BufferRef ref);

    /** The buffer could not be returned (full free queue); it leaves
     *  the protection domain entirely. */
    void releaseRecv(BufferRef ref);

    /** The agent is writing message data into @p ref. */
    void rxWrite(BufferRef ref);

    /** A receive descriptor referencing @p ref entered the rx queue. */
    void deliver(BufferRef ref);

    /** @} */

    /** The application popped the receive descriptor owning @p ref. */
    void consume(BufferRef ref);

    /** Number of regions currently tracked (leak detection in tests). */
    std::size_t tracked() const { return regions.size(); }

    /** Bytes in a given state across all tracked regions. */
    std::size_t bytesIn(BufState state) const;

    /** Digest of the full region table for explorer state hashing. */
    std::uint64_t stateHash() const;

  private:
    struct Region
    {
        std::uint32_t length = 0;
        BufState state = BufState::TxPosted;
    };

    /** Panic unless [ref) is inside the buffer area. */
    void checkBounds(BufferRef ref, const char *op) const;

    /** Panic if [ref) overlaps any tracked region. */
    void checkNoOverlap(BufferRef ref, const char *op) const;

    /** Region starting exactly at ref.offset, or nullptr. */
    Region *findExact(BufferRef ref);

    /** Region whose range fully contains [ref), or nullptr. */
    Region *findContaining(BufferRef ref);

    /** Exact-offset region in @p from, moved to @p to; no-op when
     *  untracked, panic when tracked in another state. */
    void transition(BufferRef ref, BufState from, BufState to,
                    const char *op);

    std::size_t areaBytes;

    /** Disjoint tracked regions, keyed by start offset. */
    std::map<std::uint32_t, Region> regions;
};

#else // !UNET_CHECK

/** No-op stand-in so call sites need no #ifdefs. */
class OwnershipTracker : public Enrolled<OwnershipTracker>
{
  public:
    explicit OwnershipTracker(std::size_t) {}

    void postSend(BufferRef) {}
    void postFree(BufferRef) {}
    void claimSend(BufferRef) {}
    void releaseSend(BufferRef) {}
    void claimRecv(BufferRef) {}
    void unclaimRecv(BufferRef) {}
    void releaseRecv(BufferRef) {}
    void rxWrite(BufferRef) {}
    void deliver(BufferRef) {}
    void consume(BufferRef) {}
    std::size_t tracked() const { return 0; }
    std::size_t bytesIn(BufState) const { return 0; }
    std::uint64_t stateHash() const { return 0; }
};

#endif // UNET_CHECK

} // namespace unet::check

#endif // UNET_CHECK_OWNERSHIP_HH
