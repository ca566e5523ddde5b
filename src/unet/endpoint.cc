#include "unet/endpoint.hh"

namespace unet {

Endpoint::Endpoint(sim::Simulation &sim, host::Memory &memory,
                   const EndpointConfig &config,
                   const sim::Process *owner, std::size_t id)
    : sim(sim), _id(id), _owner(owner), _config(config),
      _buffers(memory, config.bufferAreaBytes),
      _sendQueue(config.sendQueueDepth),
      _recvQueue(config.recvQueueDepth),
      _freeQueue(config.freeQueueDepth),
      _ownership(config.bufferAreaBytes),
      _metrics(sim.metrics(), sim.metrics().uniquePrefix(
                                  "unet.ep" + std::to_string(id)))
{
    _metrics.counter("rxQueueDrops", _rxQueueDrops);
    // Custody: only the owning process's fiber (or the main/event
    // context — kernel agents, NIC firmware, harnesses) may touch the
    // shared rings.
    _sendGuard.bindOwner(owner);
    _recvGuard.bindOwner(owner);
    _freeGuard.bindOwner(owner);
}

void
Endpoint::labelGuards(const std::string &prefix)
{
    _sendGuard.setLabel(prefix + ".sendq");
    _recvGuard.setLabel(prefix + ".recvq");
    _freeGuard.setLabel(prefix + ".freeq");
}

ChannelId
Endpoint::addChannel(const ChannelInfo &info)
{
    if (channels.size() >= _config.maxChannels)
        UNET_FATAL("endpoint ", _id, " exceeds its channel limit of ",
                   _config.maxChannels);
    channels.push_back(info);
    channels.back().valid = true;
    return static_cast<ChannelId>(channels.size() - 1);
}

const ChannelInfo &
Endpoint::channel(ChannelId id) const
{
    if (!channelValid(id))
        UNET_PANIC("invalid channel ", id, " on endpoint ", _id);
    return channels[id];
}

bool
Endpoint::channelValid(ChannelId id) const
{
    return id < channels.size() && channels[id].valid;
}

bool
Endpoint::poll(RecvDescriptor &out)
{
    check::ContextGuard::Scope scope(_recvGuard, "poll");
    auto desc = _recvQueue.pop();
    if (!desc)
        return false;
    out = *desc;
#if UNET_TRACE
    // The application consumes the message: close out its custody.
    if (auto *tr = sim.trace())
        tr->hop(out.trace, obs::SpanKind::RxQueue, _metrics.prefix(),
                sim.now());
#endif
    if (!out.isSmall)
        for (std::uint8_t i = 0; i < out.bufferCount; ++i)
            _ownership.consume(out.buffers[i]);
    return true;
}

std::size_t
Endpoint::pollv(RecvDescriptor *out, std::size_t max)
{
    check::ContextGuard::Scope scope(_recvGuard, "pollv");
    std::size_t drained = 0;
    while (drained < max) {
        auto desc = _recvQueue.pop();
        if (!desc)
            break;
        out[drained] = *desc;
        RecvDescriptor &cur = out[drained];
#if UNET_TRACE
        if (auto *tr = sim.trace())
            tr->hop(cur.trace, obs::SpanKind::RxQueue,
                    _metrics.prefix(), sim.now());
#endif
        if (!cur.isSmall)
            for (std::uint8_t i = 0; i < cur.bufferCount; ++i)
                _ownership.consume(cur.buffers[i]);
        ++drained;
    }
    return drained;
}

bool
Endpoint::wait(sim::Process &proc, RecvDescriptor &out, sim::Tick timeout)
{
    check::assertCaller(proc, "Endpoint::wait");
    _recvGuard.mutate("wait");
    while (true) {
        if (poll(out))
            return true;
        if (timeout == sim::maxTick) {
            proc.waitOn(_rxAvailable);
        } else {
            sim::Tick before = sim.now();
            if (!proc.waitOn(_rxAvailable, timeout))
                return poll(out); // one last check after the timeout
            timeout -= sim.now() - before;
            if (timeout < 0)
                timeout = 0;
        }
    }
}

void
Endpoint::setUpcall(std::function<void(const RecvDescriptor &)> handler,
                    sim::Tick latency)
{
    upcall = std::move(handler);
    upcallLatency = latency;
    if (upcall && !_recvQueue.empty())
        scheduleUpcall();
}

bool
Endpoint::deliver(const RecvDescriptor &desc)
{
    check::ContextGuard::Scope scope(_recvGuard, "deliver");
    if (!_recvQueue.push(desc)) {
        ++_rxQueueDrops;
        return false;
    }
    if (!desc.isSmall)
        for (std::uint8_t i = 0; i < desc.bufferCount; ++i)
            _ownership.deliver(desc.buffers[i]);
    _rxAvailable.notifyAll();
    if (upcall)
        scheduleUpcall();
    return true;
}

void
Endpoint::scheduleUpcall()
{
    if (upcallPending)
        return;
    upcallPending = true;
    sim.scheduleIn(upcallLatency, [this] {
        upcallPending = false;
        // Consume all pending messages in a single activation.
        RecvDescriptor desc;
        while (!_recvQueue.empty()) {
            desc = *_recvQueue.pop();
#if UNET_TRACE
            if (auto *tr = sim.trace())
                tr->hop(desc.trace, obs::SpanKind::RxQueue,
                        _metrics.prefix(), sim.now());
#endif
            if (!desc.isSmall)
                for (std::uint8_t i = 0; i < desc.bufferCount; ++i)
                    _ownership.consume(desc.buffers[i]);
            upcall(desc);
        }
    });
}

} // namespace unet
