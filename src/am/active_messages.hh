/**
 * @file
 * Active Messages over U-Net.
 *
 * "Split-C is implemented over Active Messages, a low-cost RPC
 * mechanism, providing flow control and reliable transfer, which has
 * been implemented over U-Net." This layer provides exactly that:
 *
 *  - request/reply messages carrying a handler id, four word arguments,
 *    and an optional payload;
 *  - per-channel Go-Back-N reliability: cumulative acknowledgements
 *    piggybacked on every message (with delayed explicit ACKs when
 *    traffic is one-way), timeout-driven retransmission;
 *  - window flow control: a sender blocks (polling) while its channel
 *    has `window` unacknowledged messages outstanding;
 *  - bulk transfer (store) segmented to the substrate's message size.
 *
 * Faithful to its 1990s user-level ancestry, the library has no
 * background thread: retransmission timers are checked whenever the
 * application calls in (poll / request / reply), and blocking waits
 * wake periodically to do so. A check walks the channel table only
 * once the earliest retransmit or delayed-ACK deadline has passed, so
 * a call in costs the same with 1 channel as with 256.
 */

#ifndef UNET_AM_ACTIVE_MESSAGES_HH
#define UNET_AM_ACTIVE_MESSAGES_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <vector>

#include "am/pool.hh"
#include "obs/metrics.hh"
#include "sim/stats.hh"
#include "unet/unet.hh"

namespace unet::am {

/** Handler index (the "instruction" of an active message). */
using HandlerId = std::uint8_t;

/** Word arguments carried by every message. */
using Word = std::uint32_t;
using Args = std::array<Word, 4>;

/** Identifies the requester so a handler can reply. */
struct Token
{
    ChannelId channel = invalidChannel;
};

/** Tuning knobs for the AM layer. */
struct AmSpec
{
    /** Per-channel send window (outstanding unacked messages). */
    std::size_t window = 8;

    /** Retransmit timeout. */
    sim::Tick retransmitTimeout = sim::milliseconds(1);

    /** Give up (mark the channel dead) after this many retries. */
    int maxRetries = 16;

    /** Send an explicit ACK after this many unacked receives... */
    std::size_t ackEvery = 4;

    /** ...or when the oldest pending ACK is this stale at poll time. */
    sim::Tick ackDelay = sim::microseconds(50);

    /** Bulk-transfer chunk size (payload bytes per fragment); clamped
     *  to the substrate's maximum message size. */
    std::size_t bulkMtu = 4096;

    /** Receive buffers posted to the endpoint's free queue. */
    std::size_t rxBuffers = 32;

    /** Application CPU cost of one poll call. */
    sim::Tick pollCost = sim::nanoseconds(300);

    /** Application CPU cost of handling one inbound message. */
    sim::Tick handleCost = sim::nanoseconds(400);

    /** Application CPU cost of composing one outbound message. */
    sim::Tick composeCost = sim::nanoseconds(400);
};

/** The Active Message layer bound to one U-Net endpoint. */
class ActiveMessages
{
  public:
    /** Bytes of AM header inside each U-Net message. */
    static constexpr std::size_t headerBytes = 20;

    /** Handler signature: source token, word args, payload view. */
    using Handler = std::function<void(sim::Process &, Token,
                                       const Args &,
                                       std::span<const std::uint8_t>)>;

    /** Bulk sink: where store() payloads land (dst_addr is the
     *  receiver-side address carried by the transfer). */
    using BulkSink = std::function<void(std::uint32_t dst_addr,
                                        std::span<const std::uint8_t>)>;

    /**
     * @param unet The U-Net instance of this host.
     * @param ep   Endpoint to run over (owned by the app process).
     */
    ActiveMessages(UNet &unet, Endpoint &ep, AmSpec spec = {});

    /** Register the handler for @p id. */
    void setHandler(HandlerId id, Handler fn);

    /** Register where bulk-store payloads are written. */
    void setBulkSink(BulkSink sink) { bulkSink = std::move(sink); }

    /** Start reliability state for a (previously connected) channel. */
    void openChannel(ChannelId chan);

    /**
     * Send a request. Blocks (polling) while the channel window is
     * full. @return false if the channel has died (retries exhausted).
     */
    bool request(sim::Process &proc, ChannelId chan, HandlerId handler,
                 const Args &args,
                 std::span<const std::uint8_t> payload = {});

    /** Send a reply from inside a handler. */
    bool reply(sim::Process &proc, Token token, HandlerId handler,
               const Args &args,
               std::span<const std::uint8_t> payload = {});

    /** Handler id meaning "no completion handler". */
    static constexpr HandlerId noHandler = 0xFF;

    /**
     * Bulk transfer: deliver @p data to the peer's bulk sink at
     * @p dst_addr, then invoke @p done_handler there with
     * args = {dst_addr, total, 0, 0}. Blocks while segmenting.
     */
    bool store(sim::Process &proc, ChannelId chan, std::uint32_t dst_addr,
               std::span<const std::uint8_t> data,
               HandlerId done_handler = noHandler);

    /**
     * Drain the receive queue, dispatch handlers, process ACKs and
     * retransmissions. @return number of messages handled.
     */
    int poll(sim::Process &proc);

    /**
     * Poll until @p pred() holds. Blocks between polls; wakes on
     * arrivals and periodically for timeout handling.
     * @param timeout relative time budget (default: unbounded).
     * @return false if @p timeout elapsed first.
     */
    bool pollUntil(sim::Process &proc, const std::function<bool()> &pred,
                   sim::Tick timeout = sim::maxTick);

    /** True if every channel's window is empty (all sends ACKed). */
    bool idle() const;

    /** Block until idle() — e.g. before reading results.
     *  @param timeout relative time budget (default: unbounded). */
    bool drain(sim::Process &proc, sim::Tick timeout = sim::maxTick);

    Endpoint &endpoint() { return ep; }
    const AmSpec &spec() const { return _spec; }

    /** Dump per-channel protocol state to stderr (debugging aid). */
    void debugDump(const char *tag) const;

    /** @name Statistics. @{ */
    /** TX chunks currently free (pool accounting invariant: returns to
     *  the initial value once traffic quiesces — no leaks through the
     *  retransmit quarantine). */
    std::size_t txChunksFree() const { return txPool.available(); }
    std::size_t txChunksQuarantined() const { return zombieChunks.size(); }

    /** Chunks currently referenced by unacknowledged window entries
     *  (free + quarantined + held always equals the pool size). */
    std::size_t
    txChunksHeld() const
    {
        std::size_t held = 0;
        for (const auto &[chan, ch] : channels)
            for (const auto &pending : ch.window)
                if (pending.chunk)
                    ++held;
        return held;
    }
    std::uint64_t sent() const { return _sent.value(); }
    std::uint64_t received() const { return _received.value(); }
    std::uint64_t retransmits() const { return _retransmits.value(); }
    std::uint64_t duplicates() const { return _duplicates.value(); }
    std::uint64_t explicitAcks() const { return _explicitAcks.value(); }
    std::uint64_t deadChannels() const { return _dead.value(); }
    /** @} */

  private:
    /** Message types on the wire. */
    enum class Type : std::uint8_t {
        Request = 1,
        Reply = 2,
        Ack = 3,
        BulkFragment = 4,
    };

    struct Pending
    {
        SendDescriptor desc;
        std::uint8_t seq = 0;
        std::optional<BufferRef> chunk; ///< TX pool chunk to release

        /** A duplicate descriptor for this message was posted (it may
         *  still sit unconsumed in the device path, referencing the
         *  chunk). */
        bool retransmitted = false;
    };

    struct ChannelState
    {
        bool open = false;
        bool dead = false;

        std::uint8_t txNext = 0;      ///< next sequence to assign
        std::deque<Pending> window;   ///< unacked, oldest first
        sim::Tick lastTx = 0;
        int retries = 0;

        std::uint8_t rxExpected = 0;  ///< next in-order sequence
        std::size_t unackedRx = 0;    ///< receives since last ack out
        sim::Tick oldestUnackedRx = 0;

        /** In-progress inbound bulk transfers: id -> bytes seen. */
        std::map<Word, std::uint32_t> bulkSeen;
    };

    ChannelState &state(ChannelId chan);

    /** Serialize and hand one message to U-Net (window bookkeeping
     *  done by the caller). */
    bool emit(sim::Process &proc, ChannelId chan, Type type,
              std::uint8_t seq, HandlerId handler, const Args &args,
              std::span<const std::uint8_t> payload, Pending *out,
              bool is_retransmit);

    /** Queue a message reliably, blocking for window space. */
    bool sendReliable(sim::Process &proc, ChannelId chan, Type type,
                      HandlerId handler, const Args &args,
                      std::span<const std::uint8_t> payload);

    void processInbound(sim::Process &proc, const RecvDescriptor &rd);
    void processAck(ChannelState &ch, std::uint8_t ack);
    void checkTimeouts(sim::Process &proc);
    void flushAcks(sim::Process &proc);
    void sendAck(sim::Process &proc, ChannelId chan);

    /** When @p ch's retransmit timer expires (its window non-empty). */
    sim::Tick
    retransmitDue(const ChannelState &ch) const
    {
        return ch.lastTx + (_spec.retransmitTimeout
                            << std::min(ch.retries, 6));
    }

    /** Set ch.unackedRx, keeping acksOwed in step. */
    void setUnackedRx(ChannelState &ch, std::size_t n);

    UNet &unet;
    Endpoint &ep;
    AmSpec _spec;

    std::vector<Handler> handlers;
    BulkSink bulkSink;
    std::map<ChannelId, ChannelState> channels;

    /**
     * Lower bounds on the earliest retransmit timer and the earliest
     * delayed ACK over all channels: checkTimeouts() and flushAcks()
     * walk the channels only once now() reaches theirs, and then reset
     * it to the exact minimum. Only a queued send, ACK progress and a
     * receive can move a channel's deadline earlier, and each lowers
     * the bound; everything else only moves deadlines later, so a stale
     * bound costs one extra walk, never a missed timer.
     */
    sim::Tick timeoutDue = sim::maxTick;
    sim::Tick ackDue = sim::maxTick;

    /** Channels with unackedRx > 0, dead ones included (pollUntil()
     *  wakes at the ACK delay while any exist). */
    std::size_t acksOwed = 0;

    BufferPool txPool;
    Word nextBulkId = 1;

    /**
     * Zero-copy quarantine. A chunk whose message was ACKed but also
     * retransmitted cannot be reused yet: the duplicate descriptor may
     * still be queued in the send queue or device ring, and reusing
     * the chunk would let that stale descriptor transmit mangled
     * bytes. Zombies return to the pool once the device has no
     * unconsumed descriptors left (txBacklog() == 0).
     */
    std::vector<BufferRef> zombieChunks;

    void reclaimZombies();

    sim::Counter _sent;
    sim::Counter _received;
    sim::Counter _retransmits;
    sim::Counter _duplicates;
    sim::Counter _explicitAcks;
    sim::Counter _dead;

    /** Trace track for handler-dispatch spans. */
    std::string _trackApp;

    /** Declared after the counters it registers. */
    obs::MetricGroup _metrics;
};

} // namespace unet::am

#endif // UNET_AM_ACTIVE_MESSAGES_HH
