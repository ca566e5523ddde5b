/**
 * @file
 * U-Net architecture data types.
 *
 * These are the structures Figure 1 of the paper draws: message
 * descriptors that travel through the send, receive, and free queues of
 * an endpoint. They are shared by both implementations — the U-Net/FE
 * kernel agent and the U-Net/ATM i960 firmware manipulate the same
 * formats, differing only in where the queues live and who services
 * them.
 */

#ifndef UNET_UNET_TYPES_HH
#define UNET_UNET_TYPES_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "obs/trace_ctx.hh"

namespace unet {

/** Index of a communication channel within an endpoint. */
using ChannelId = std::uint16_t;

/** An invalid channel id. */
constexpr ChannelId invalidChannel = 0xFFFF;

/** One-byte U-Net port ID (the FE demultiplexing tag). */
using PortId = std::uint8_t;

/**
 * Small-message threshold: a receive descriptor can hold the entire
 * message, avoiding buffer allocation ("As an optimization for small
 * messages ... a receive queue descriptor may hold an entire small
 * message"). U-Net/FE uses 64 bytes; U-Net/ATM single-cell messages are
 * at most 40 bytes of payload.
 */
constexpr std::size_t smallMessageMax = 64;

/** Largest U-Net/ATM single-cell message (48 - 8-byte AAL5 trailer). */
constexpr std::size_t singleCellMax = 40;

/** A fragment of an endpoint's buffer area. */
struct BufferRef
{
    std::uint32_t offset = 0;
    std::uint32_t length = 0;
};

/** Maximum scatter/gather fragments per message. */
constexpr std::size_t maxFragments = 4;

/**
 * Send-queue entry: the destination channel plus either buffer-area
 * fragments (zero-copy transmit — the DC21140 and the i960 DMA straight
 * from user space) or a small inline payload.
 */
struct SendDescriptor
{
    ChannelId channel = invalidChannel;

    /** True if the payload is carried inline in this descriptor. */
    bool isInline = false;

    /** Inline payload (valid when isInline). */
    std::array<std::uint8_t, smallMessageMax> inlineData{};
    std::uint32_t inlineLength = 0;

    /** Scatter list (valid when !isInline). */
    std::uint8_t fragmentCount = 0;
    std::array<BufferRef, maxFragments> fragments{};

    /** Message-trace custody state (empty unless tracing). */
    obs::TraceContext trace;

    /** Total message length in bytes. */
    std::uint32_t
    totalLength() const
    {
        if (isInline)
            return inlineLength;
        std::uint32_t n = 0;
        for (std::uint8_t i = 0; i < fragmentCount; ++i)
            n += fragments[i].length;
        return n;
    }
};

/** An inline send of @p data (at most smallMessageMax bytes). */
inline SendDescriptor
inlineSend(ChannelId chan, std::span<const std::uint8_t> data)
{
    SendDescriptor sd;
    sd.channel = chan;
    sd.isInline = true;
    sd.inlineLength = static_cast<std::uint32_t>(data.size());
    std::copy(data.begin(), data.end(), sd.inlineData.begin());
    return sd;
}

/** A single-fragment buffer-area send of @p frag. */
inline SendDescriptor
fragmentSend(ChannelId chan, BufferRef frag)
{
    SendDescriptor sd;
    sd.channel = chan;
    sd.isInline = false;
    sd.fragmentCount = 1;
    sd.fragments[0] = frag;
    return sd;
}

/**
 * Receive-queue entry: the source channel plus either the message
 * itself (small-message optimization) or pointers to the free-queue
 * buffers the data landed in.
 */
struct RecvDescriptor
{
    ChannelId channel = invalidChannel;
    std::uint32_t length = 0;

    /** True if the message is inline in the descriptor. */
    bool isSmall = false;

    std::array<std::uint8_t, smallMessageMax> inlineData{};

    std::uint8_t bufferCount = 0;
    std::array<BufferRef, maxFragments> buffers{};

    /** Message-trace custody state (empty unless tracing). */
    obs::TraceContext trace;
};

/** Default queue depths for an endpoint. */
struct EndpointConfig
{
    std::size_t sendQueueDepth = 64;
    std::size_t recvQueueDepth = 64;
    std::size_t freeQueueDepth = 64;
    std::size_t bufferAreaBytes = 256 * 1024;
    std::size_t maxChannels = 64;
};

} // namespace unet

#endif // UNET_UNET_TYPES_HH
