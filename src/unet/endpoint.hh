/**
 * @file
 * U-Net endpoints.
 *
 * An endpoint is "an application's handle into the network": a buffer
 * area plus send, receive, and free descriptor rings (Figure 1), and a
 * channel table filled in by the OS service. Endpoints are created
 * through the OS service and owned by exactly one process; protection
 * checks compare the calling process against the owner.
 *
 * The three receive models of the paper are supported: polling
 * (poll()), blocking (wait(), the "UNIX select" model), and upcalls
 * (setUpcall(), the signal-handler model, which consumes every pending
 * message per invocation to amortize the upcall cost).
 */

#ifndef UNET_UNET_ENDPOINT_HH
#define UNET_UNET_ENDPOINT_HH

#include <functional>
#include <vector>

#include "check/access.hh"
#include "check/ownership.hh"
#include "obs/metrics.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"
#include "unet/buffer_area.hh"
#include "unet/channel.hh"
#include "unet/queues.hh"
#include "unet/types.hh"

namespace unet {

/** One application's handle into the network. */
class Endpoint
{
  public:
    /**
     * Built by the OS service, not directly by applications.
     *
     * @param sim    Owning simulation.
     * @param memory Host memory the buffer area is pinned in.
     * @param config Queue depths and buffer-area size.
     * @param owner  Owning process (protection domain).
     * @param id     Endpoint index within its U-Net instance.
     */
    Endpoint(sim::Simulation &sim, host::Memory &memory,
             const EndpointConfig &config, const sim::Process *owner,
             std::size_t id);

    Endpoint(const Endpoint &) = delete;
    Endpoint &operator=(const Endpoint &) = delete;

    std::size_t id() const { return _id; }
    const sim::Process *owner() const { return _owner; }
    const EndpointConfig &config() const { return _config; }

    /** @name Figure-1 building blocks. @{ */
    Ring<SendDescriptor> &sendQueue() { return _sendQueue; }
    const Ring<SendDescriptor> &sendQueue() const { return _sendQueue; }
    Ring<RecvDescriptor> &recvQueue() { return _recvQueue; }
    Ring<BufferRef> &freeQueue() { return _freeQueue; }
    BufferArea &buffers() { return _buffers; }
    /** @} */

    /** Buffer-ownership state machine guarding the buffer area (a
     *  no-op object unless built with UNET_CHECK). */
    check::OwnershipTracker &ownership() { return _ownership; }

    /** @name Cross-fiber custody guards (no-ops unless UNET_CHECK).
     *
     * One guard per shared ring. Checked call sites (U-Net
     * implementations, NIC firmware models) open a
     * ContextGuard::Scope around their ring mutations; the guard
     * panics on access from a non-owning process fiber and on
     * mutation sequences interleaved across a yield.
     * @{ */
    check::ContextGuard &sendGuard() { return _sendGuard; }
    check::ContextGuard &recvGuard() { return _recvGuard; }
    check::ContextGuard &freeGuard() { return _freeGuard; }
    /** @} */

    /**
     * Name the ring guards for the shardability report, e.g.
     * "node0.ep0" -> "node0.ep0.sendq". Called by the owning U-Net
     * instance at creation; instance-distinct labels keep one
     * endpoint's rings from aggregating with another's.
     */
    void labelGuards(const std::string &prefix);

    /** @name Channel table (maintained by the OS service). @{ */
    ChannelId addChannel(const ChannelInfo &info);
    const ChannelInfo &channel(ChannelId id) const;
    bool channelValid(ChannelId id) const;
    std::size_t channelCount() const { return channels.size(); }
    /** @} */

    /** @name Receive models. @{ */

    /** Non-blocking poll: pop the next receive descriptor if present. */
    bool poll(RecvDescriptor &out);

    /**
     * Batched poll: pop up to @p max receive descriptors in one call.
     * Per-descriptor effects (custody hop, ownership consume) are
     * identical to @p max scalar poll() calls; the saving is one guard
     * window and one call per batch.
     * @return the number of descriptors written to @p out.
     */
    std::size_t pollv(RecvDescriptor *out, std::size_t max);

    /**
     * Block until a message is available (select()-style), then pop it.
     * @return false if @p timeout expired first.
     */
    bool wait(sim::Process &proc, RecvDescriptor &out,
              sim::Tick timeout = sim::maxTick);

    /**
     * Register an upcall invoked when the receive queue becomes
     * non-empty. All pending messages are consumed in one activation.
     * @param latency models signal-delivery cost before the first
     *        message is handled.
     */
    void setUpcall(std::function<void(const RecvDescriptor &)> handler,
                   sim::Tick latency);

    /** Condition notified whenever the receive queue gains an entry. */
    sim::WaitChannel &rxAvailable() { return _rxAvailable; }

    /**
     * Servicer-side: push a receive descriptor and fire notifications.
     * @return false if the receive queue was full (message dropped).
     */
    bool deliver(const RecvDescriptor &desc);

    /** @} */

    /** Messages dropped because the receive queue was full. */
    std::uint64_t rxQueueDrops() const { return _rxQueueDrops.value(); }

  private:
    void scheduleUpcall();

    // Layout: the members every poll/deliver touches (the sim handle,
    // the per-op scalars, then the recv ring) sit together at the
    // front; setup-time state (channel table, upcall plumbing) and the
    // guards trail. Rings embed their own hot-cursor-first layout (see
    // queues.hh).
    sim::Simulation &sim;           // hb-exempt(reference, set once)
    sim::Tick upcallLatency = 0;    // hb-exempt(setup-time only)
    bool upcallPending = false;     // hb-guarded(_recvGuard)
    std::size_t _id;                // hb-exempt(const after ctor)
    const sim::Process *_owner;     // hb-exempt(const after ctor)
    EndpointConfig _config;         // hb-exempt(const after ctor)

    BufferArea _buffers;            // hb-guarded(_freeGuard)
    Ring<SendDescriptor> _sendQueue; // hb-guarded(_sendGuard)
    Ring<RecvDescriptor> _recvQueue; // hb-guarded(_recvGuard)
    Ring<BufferRef> _freeQueue;      // hb-guarded(_freeGuard)
    sim::WaitChannel _rxAvailable;   // hb-exempt(notify is a scheduler edge)
    check::OwnershipTracker _ownership; // hb-guarded(_freeGuard)
    check::ContextGuard _sendGuard{"endpoint send queue"};
    check::ContextGuard _recvGuard{"endpoint recv queue"};
    check::ContextGuard _freeGuard{"endpoint free queue"};

    std::vector<ChannelInfo> channels; // hb-exempt(setup-time only)
    // hb-exempt(setup-time only)
    std::function<void(const RecvDescriptor &)> upcall;

    sim::Counter _rxQueueDrops;     // hb-exempt(commutative metrics sink)

    /** Registered under "unet.ep<N>" (uniquified across instances);
     *  the prefix doubles as this endpoint's trace track. Declared
     *  last so it deregisters before the counters it references. */
    obs::MetricGroup _metrics;      // hb-exempt(registration RAII)
};

} // namespace unet

#endif // UNET_UNET_ENDPOINT_HH
