#include "unet/unet_fe.hh"

#include <algorithm>
#include <array>

#include "check/access.hh"
#include "check/hb/auditor.hh"
#include "sim/logging.hh"

namespace unet {

namespace {

std::uint64_t
tagKey(const eth::MacAddress &mac, PortId port)
{
    return (mac.toU64() << 8) | port;
}

/** Return a claimed receive buffer to @p ep's free queue at its
 *  original size; a buffer lost to a momentarily full queue leaves the
 *  protection domain for good. */
void
recycleRxBuffer(Endpoint &ep, BufferRef buf)
{
    check::ContextGuard::Scope scope(ep.freeGuard(),
                                     "kernel rx buffer recycle");
    if (ep.freeQueue().push(buf))
        ep.ownership().unclaimRecv(buf);
    else
        ep.ownership().releaseRecv(buf);
}

} // namespace

UNetFe::UNetFe(host::Host &host, nic::Dc21140 &nic, UNetFeSpec spec)
    : UNet(host), _spec(spec), _nic(nic),
      _residency(host.simulation(), spec.vep,
                 "host." + host.name() + ".unet.vep"),
      _trackCpu(host.name() + ".cpu"),
      _metrics(host.simulation().metrics(),
               host.simulation().metrics().uniquePrefix(
                   "host." + host.name() + ".unet.fe"))
{
    _metrics.counter("messagesSent", _sent);
    _metrics.counter("messagesDelivered", _delivered);
    _metrics.counter("rxNoFreeBuffer", _noFreeBuf);
    _metrics.counter("rxUnknownPort", _unknownPort);
    _metrics.counter("rxNoChannel", _noChannel);
    _metrics.counter("rxBadFrame", _badFrame);
    _metrics.counter("protectionFaults", _protFaults);

    // Kernel header buffers: one per TX ring slot, large enough for the
    // Ethernet + U-Net headers plus an inline small message.
    const std::size_t header_buf_bytes =
        eth::Frame::headerBytes + unetHeaderBytes +
        _spec.extraHeaderBytes() + smallMessageMax;
    headerBufOffset.resize(nic.txRingSize());
    for (auto &off : headerBufOffset)
        off = host.memory().alloc(header_buf_bytes, 8);
    txSlotFrag.resize(nic.txRingSize());

    // Kernel receive buffers: pre-post the whole device RX ring
    // ("these are fixed buffers allocated by the device driver and are
    // used in FIFO order").
    for (std::size_t i = 0; i < nic.rxRingSize(); ++i) {
        auto &desc = nic.rxDesc(i);
        desc.bufOffset = static_cast<std::uint32_t>(
            host.memory().alloc(nic.spec().rxBufferBytes, 8));
        desc.bufLength =
            static_cast<std::uint32_t>(nic.spec().rxBufferBytes);
        desc.own = true;
    }

    nic.interrupt().connect([this] { rxInterrupt(); });
    // Eager reap: release a slot's fragment (and its endpoint pin) the
    // moment the device writes the completion back, instead of at the
    // next trap. Keeps pin windows tight so eviction is never blocked
    // by a frame that already left the wire.
    nic.onTxComplete([this](std::size_t slot) { reapTxSlot(slot); });
}

Endpoint &
UNetFe::createEndpoint(const sim::Process *owner,
                       const EndpointConfig &config)
{
    PortId port;
    if (!_freePorts.empty()) {
        port = _freePorts.back();
        _freePorts.pop_back();
    } else if (portsAssigned >= portTable.size()) {
        UNET_FATAL("U-Net/FE port space (one byte) exhausted");
    } else {
        port = nextPort++;
    }
    Endpoint *ep = &_table.create(_host.simulation(), _host.memory(),
                                  config, owner);
    ep->labelGuards(_host.name() + ".ep" + std::to_string(ep->id()));

    EpState &state = epState[ep->id()];
    state.ep = ep;
    state.port = port;
    ++portsAssigned;
    portTable[state.port] = &state;
    if (epIndex.size() <= ep->id())
        epIndex.resize(ep->id() + 1, nullptr);
    epIndex[ep->id()] = &state;
    // Creation pre-loads the state it just built (boot-time work, not
    // a fault): rigs that fit the hot set never page at all.
    _residency.warm(ep->id());
    return *ep;
}

void
UNetFe::onDestroyEndpoint(Endpoint &ep)
{
    auto it = epState.find(ep.id());
    if (it == epState.end())
        UNET_PANIC("endpoint not created by this U-Net/FE instance");
    for (const auto &record : txSlotFrag)
        if (record && record->first == &ep)
            UNET_FATAL("destroying endpoint ", ep.id(),
                       " with frames still in the device TX ring");
    // Panics if the endpoint still holds a pin (in-flight custody).
    _residency.remove(ep.id());
    EpState &state = it->second;
    portTable[state.port] = nullptr;
    _freePorts.push_back(state.port);
    --portsAssigned;
    epIndex[ep.id()] = nullptr;
    epState.erase(it);
}

PortId
UNetFe::portOf(const Endpoint &ep) const
{
    auto it = epState.find(ep.id());
    if (it == epState.end())
        UNET_PANIC("endpoint not created by this U-Net/FE instance");
    return it->second.port;
}

ChannelId
UNetFe::addChannelTo(Endpoint &ep, eth::MacAddress remote_mac,
                     PortId remote_port)
{
    auto it = epState.find(ep.id());
    if (it == epState.end())
        UNET_PANIC("endpoint not created by this U-Net/FE instance");

    ChannelInfo info;
    info.remoteMac = remote_mac;
    info.remotePort = remote_port;
    ChannelId id = ep.addChannel(info);
    auto &demux = it->second.demux;
    const std::uint64_t key = tagKey(remote_mac, remote_port);
    auto pos = std::lower_bound(
        demux.begin(), demux.end(), key,
        [](const auto &entry, std::uint64_t k) {
            return entry.first < k;
        });
    if (pos != demux.end() && pos->first == key)
        pos->second = id;
    else
        demux.insert(pos, {key, id});
    return id;
}

void
UNetFe::connect(UNetFe &a, Endpoint &ep_a, UNetFe &b, Endpoint &ep_b,
                ChannelId &chan_a, ChannelId &chan_b)
{
    chan_a = a.addChannelTo(ep_a, b._nic.address(), b.portOf(ep_b));
    chan_b = b.addChannelTo(ep_b, a._nic.address(), a.portOf(ep_a));
}

bool
UNetFe::send(sim::Process &proc, Endpoint &ep, const SendDescriptor &desc)
{
#if UNET_TRACE
    // Stamp untraced messages on the way in. The caller's descriptor is
    // const, so custody tracking rides on a copy.
    if (auto *tr = _host.simulation().trace(); tr && !desc.trace) {
        SendDescriptor traced = desc;
        tr->begin(traced.trace, _host.simulation().now());
        return sendImpl(proc, ep, traced);
    }
#endif
    return sendImpl(proc, ep, desc);
}

std::size_t
UNetFe::sendv(sim::Process &proc, Endpoint &ep,
              const SendDescriptor *descs, std::size_t n)
{
    if (n > ep.sendQueue().capacity())
        UNET_PANIC("sendv of ", n, " descriptors exceeds the ",
                   ep.sendQueue().capacity(),
                   "-entry send queue window");
    if (n == 0)
        return 0;
    // Batch of one IS a scalar send: same code path, so it is trace-
    // and digest-identical by construction.
    if (n == 1)
        return send(proc, ep, descs[0]) ? 1 : 0;
#if UNET_TRACE
    if (auto *tr = _host.simulation().trace()) {
        std::vector<SendDescriptor> traced(descs, descs + n);
        for (auto &desc : traced)
            if (!desc.trace)
                tr->begin(desc.trace, _host.simulation().now());
        return sendvImpl(proc, ep, traced.data(), n);
    }
#endif
    return sendvImpl(proc, ep, descs, n);
}

std::size_t
UNetFe::sendvImpl(sim::Process &proc, Endpoint &ep,
                  const SendDescriptor *descs, std::size_t n)
{
    check::assertCaller(proc, "UNetFe::sendv");
    if (!checkOwner(proc, ep))
        return 0;
    ep.sendGuard().mutate("sendv");
    for (std::size_t i = 0; i < n; ++i) {
        if (descs[i].totalLength() >
            maxMessage - _spec.extraHeaderBytes())
            UNET_PANIC("U-Net/FE message of ", descs[i].totalLength(),
                       " bytes exceeds the ",
                       maxMessage - _spec.extraHeaderBytes(),
                       "-byte maximum");
        if (!descs[i].isInline && descs[i].fragmentCount > 1)
            UNET_PANIC("U-Net/FE model supports one buffer fragment "
                       "per send (plus the kernel header)");
    }

    auto &cpu = _host.cpu();
    // The user still pushes each descriptor individually; only the
    // kernel-crossing costs are batched.
    cpu.busy(proc,
             static_cast<sim::Tick>(n) * _spec.userDescriptorPush);
    reapTx();
    std::size_t accepted = 0;
    while (accepted < n && ep.sendQueue().push(descs[accepted])) {
        const SendDescriptor &desc = descs[accepted];
        if (!desc.isInline)
            for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
                ep.ownership().postSend(desc.fragments[i]);
        ++accepted;
    }
    if (accepted == 0)
        return 0;

    // ONE fast trap for the whole batch; the service routine coalesces
    // the per-message poll demands into a single device kick.
    sim::Tick trap_acc = 0;
    step(descs[0].trace, _host.simulation().now(), "trap entry",
         cpu.spec().trapEntryCost, trap_acc);
    _host.trapEnter(proc);
    serviceSendQueue(proc, ep, /*coalesce=*/true);
    trap_acc = 0;
    step(descs[0].trace, _host.simulation().now(), "return from trap",
         cpu.spec().trapExitCost, trap_acc);
    _host.trapExit(proc);
    return accepted;
}

bool
UNetFe::sendImpl(sim::Process &proc, Endpoint &ep,
                 const SendDescriptor &desc)
{
    check::assertCaller(proc, "UNetFe::send");
    if (!checkOwner(proc, ep))
        return false;
    ep.sendGuard().mutate("send");
    if (desc.totalLength() > maxMessage - _spec.extraHeaderBytes())
        UNET_PANIC("U-Net/FE message of ", desc.totalLength(),
                   " bytes exceeds the ",
                   maxMessage - _spec.extraHeaderBytes(),
                   "-byte maximum");
    if (!desc.isInline && desc.fragmentCount > 1)
        UNET_PANIC("U-Net/FE model supports one buffer fragment per "
                   "send (plus the kernel header)");

    auto &cpu = _host.cpu();
    cpu.busy(proc, _spec.userDescriptorPush);
    // Release fragments whose ring slots have since completed, so a
    // legitimate re-post of the same buffer is not flagged below.
    reapTx();
    if (!ep.sendQueue().push(desc))
        return false;
    if (!desc.isInline)
        for (std::uint8_t i = 0; i < desc.fragmentCount; ++i)
            ep.ownership().postSend(desc.fragments[i]);

    // Fast trap into the kernel; the service routine runs in the
    // caller's context (this is host processor overhead, the U-Net/FE
    // trade-off).
    sim::Tick trap_acc = 0;
    step(desc.trace, _host.simulation().now(), "trap entry",
         cpu.spec().trapEntryCost, trap_acc);
    _host.trapEnter(proc);
    serviceSendQueue(proc, ep);
    trap_acc = 0;
    step(desc.trace, _host.simulation().now(), "return from trap",
         cpu.spec().trapExitCost, trap_acc);
    _host.trapExit(proc);
    return true;
}

void
UNetFe::serviceSendQueue(sim::Process &proc, Endpoint &ep, bool coalesce)
{
    // Shard attribution: the trap handler belongs to this host's
    // shard no matter whose context charged it here.
    check::hb::ScopedTaskDomain shard(_host.name());
    // The kernel drains the send queue in the caller's context; the
    // scope spans the drain (including its cpu.busy yields), so any
    // other context mutating the send queue mid-drain is flagged.
    check::ContextGuard::Scope scope(ep.sendGuard(),
                                     "kernel tx service");
    auto &cpu = _host.cpu();
    auto &mem = _host.memory();
    if (ep.id() >= epIndex.size() || !epIndex[ep.id()])
        UNET_PANIC("endpoint not created by this U-Net/FE instance");
    EpState &state = *epIndex[ep.id()];

    // Coalesced (sendv) drains accumulate every message's kernel cost
    // against one base tick and pay it — plus ONE poll demand — after
    // the last ring descriptor is published.
    const sim::Tick batch_base = _host.simulation().now();
    sim::Tick batch_acc = 0;
    std::size_t filled = 0;

    while (!ep.sendQueue().empty()) {
        // Stop (leaving descriptors queued) when the device ring is
        // full; a later trap retries them. This is the backpressure an
        // application sees as a slowly draining send queue.
        std::size_t slot = _nic.txTail();
        auto &ring_desc = _nic.txDesc(slot);
        if (ring_desc.own)
            break;

        SendDescriptor desc = *ep.sendQueue().pop();
        if (!desc.isInline && desc.fragmentCount == 1)
            ep.ownership().claimSend(desc.fragments[0]);
        const sim::Tick base =
            coalesce ? batch_base : _host.simulation().now();
        sim::Tick local = 0;
        sim::Tick &cost = coalesce ? batch_acc : local;

        // The kernel's per-endpoint state (port, demux table, queue
        // registration) must be resident before it can service the
        // endpoint; a miss pages it in from host memory. Re-checked
        // per message: the non-coalesced path yields in cpu.busy()
        // between messages, and a concurrent interrupt touching other
        // endpoints may have evicted this one meanwhile. Resident hits
        // cost zero and record no span — the fixed-endpoint fast path
        // is byte-identical.
        if (sim::Tick fault = _residency.touch(ep.id()))
            step(desc.trace, base, "page in endpoint state", fault,
                 cost);

        step(desc.trace, base, "check U-Net send parameters",
             _spec.txCheckParams, cost);
        if (!ep.channelValid(desc.channel)) {
            UNET_WARN("U-Net/FE: send on invalid channel ",
                      desc.channel, "; dropped");
            if (!desc.isInline && desc.fragmentCount == 1)
                ep.ownership().releaseSend(desc.fragments[0]);
            if (!coalesce)
                cpu.busy(proc, cost);
            continue;
        }
        const ChannelInfo &chan = ep.channel(desc.channel);

        step(desc.trace, base, "Ethernet header set-up",
             _spec.txEthHeaderSetup, cost);
        std::uint32_t msg_len = desc.totalLength();
        // Built on the stack, not the heap: the non-coalesced path
        // yields in cpu.busy() below with the header still in scope, and
        // a fiber destroyed there must not strand an allocation.
        std::array<std::uint8_t,
                   eth::Frame::headerBytes + unetHeaderBytes +
                       UNetFeSpec::ipv4HeaderBytes + smallMessageMax>
            header{};
        std::uint8_t *end = header.data();
        auto put = [&end](std::uint32_t byte) {
            *end++ = static_cast<std::uint8_t>(byte);
        };
        const auto &dst = chan.remoteMac.raw();
        const auto &src = _nic.address().raw();
        end = std::copy(dst.begin(), dst.end(), end);
        end = std::copy(src.begin(), src.end(), end);
        put(_spec.etherType >> 8);
        put(_spec.etherType);
        if (_spec.ipv4Encapsulation) {
            // IPv4 header (contents unmodeled; sizing and cost are).
            end = std::fill_n(end, UNetFeSpec::ipv4HeaderBytes, 0);
            cost += _spec.ipv4Cost;
        }
        put(chan.remotePort); // dst U-Net port
        put(state.port);      // src U-Net port
        put(msg_len >> 8);
        put(msg_len);
        put(0);
        put(0);

        if (desc.isInline) {
            // Small message: the kernel copies the payload into the
            // header buffer (it arrived inline in the descriptor).
            end = std::copy_n(desc.inlineData.begin(), desc.inlineLength,
                              end);
            cost += cpu.spec().memcpyTime(desc.inlineLength);
        }
        const std::size_t header_len =
            static_cast<std::size_t>(end - header.data());
        mem.write(headerBufOffset[slot], {header.data(), header_len});

        step(desc.trace, base, "device send ring descriptor set-up",
             _spec.txRingDescSetup, cost);
        {
            // One descriptor fill is a single custody window: no yield
            // may occur between claiming the tail slot and publishing
            // it with own=true, or another trapping process could
            // interleave into the same slot. The scope closes before
            // the cpu.busy() below — once the tail is bumped, a second
            // process filling the next slot is legal.
            check::ContextGuard::Scope fill(_nic.txFillGuard(),
                                            "tx descriptor fill");
            // cpu.busy() above may have advanced simulated time, so
            // the slot could have completed a previous frame since the
            // reap at trap entry; release its fragment before reusing
            // the slot.
            reapTxSlot(slot);
            ring_desc.buf1Offset =
                static_cast<std::uint32_t>(headerBufOffset[slot]);
            ring_desc.buf1Length = static_cast<std::uint32_t>(header_len);
            if (!desc.isInline && desc.fragmentCount == 1) {
                BufferRef frag = desc.fragments[0];
                ring_desc.buf2Offset = static_cast<std::uint32_t>(
                    ep.buffers().baseOffset() + frag.offset);
                ring_desc.buf2Length = frag.length;
                txSlotFrag[slot] = {&ep, frag};
                // The device ring now references the endpoint's buffer
                // area: in-flight custody pins it against eviction
                // until the completion writeback reaps the slot.
                _residency.pin(ep.id());
            } else {
                ring_desc.buf2Length = 0;
                txSlotFrag[slot].reset();
            }
            ring_desc.transmitted = false;
            ring_desc.aborted = false;
            ring_desc.trace = desc.trace;
            ring_desc.own = true;
            _nic.bumpTxTail();
        }

        if (!coalesce)
            step(desc.trace, base, "issue poll demand",
                 _spec.txPollDemand, cost);
        step(desc.trace, base,
             "free send ring descriptor of previous message",
             _spec.txFreePrevRing, cost);
        step(desc.trace, base,
             "free U-Net send queue entry of previous message",
             _spec.txFreePrevQueue, cost);

        ++filled;
        ++_sent;
        if (coalesce)
            continue;
        // Charge the accumulated kernel time, then kick the device at
        // the point the poll demand lands.
        cpu.busy(proc, cost);
        _nic.pollDemand();
    }

    if (coalesce) {
        // One poll demand covers every descriptor published above (the
        // DC21140 walks the ring until it finds a slot it does not
        // own), so the 920 ns register write is paid once per batch.
        if (filled)
            step({}, batch_base, "issue poll demand (batched)",
                 _spec.txPollDemand, batch_acc);
        if (batch_acc)
            cpu.busy(proc, batch_acc);
        if (filled)
            _nic.pollDemand();
    }
}

void
UNetFe::reapTxSlot(std::size_t slot)
{
    // Completion reaping is host-shard work, whether reached from the
    // device's writeback event or a trap-time reapTx() sweep.
    check::hb::ScopedTaskDomain shard(_host.name());
    auto &record = txSlotFrag[slot];
    if (!record || _nic.txDesc(slot).own)
        return;
    record->first->ownership().releaseSend(record->second);
    _residency.unpin(record->first->id());
    record.reset();
}

void
UNetFe::reapTx()
{
    for (std::size_t i = 0; i < txSlotFrag.size(); ++i)
        reapTxSlot(i);
}

std::size_t
UNetFe::txBacklog(const Endpoint &ep) const
{
    std::size_t backlog = ep.sendQueue().size();
    // Ring descriptors still owned by the NIC may not have gathered
    // their buffers yet; counting them all is conservative but safe.
    for (std::size_t i = 0; i < _nic.txRingSize(); ++i)
        if (_nic.txDesc(i).own)
            ++backlog;
    return backlog;
}

void
UNetFe::flush(sim::Process &proc, Endpoint &ep)
{
    check::assertCaller(proc, "UNetFe::flush");
    if (!checkOwner(proc, ep))
        return;
    reapTx();
    if (ep.sendQueue().empty())
        return;
    _host.trapEnter(proc);
    serviceSendQueue(proc, ep);
    _host.trapExit(proc);
}

bool
UNetFe::postFree(sim::Process &proc, Endpoint &ep, BufferRef buf)
{
    check::assertCaller(proc, "UNetFe::postFree");
    if (!checkOwner(proc, ep))
        return false;
    if (!ep.buffers().contains(buf))
        UNET_PANIC("free buffer outside the endpoint buffer area");
    _host.cpu().busy(proc, _spec.userFreePost);
    ep.freeGuard().mutate("postFree");
    if (!ep.freeQueue().push(buf))
        return false;
    ep.ownership().postFree(buf);
    return true;
}

void
UNetFe::rxInterrupt()
{
    // The interrupt handler fires from a device-completion event whose
    // scheduling chain started on the *sender's* shard; everything it
    // touches from here down belongs to this host.
    check::hb::ScopedTaskDomain shard(_host.name());
    auto &cpu = _host.cpu();
    auto &mem = _host.memory();

    const sim::Tick base = _host.simulation().now();
    sim::Tick cost = 0;
    std::vector<RxDelivery> deliveries;
    step({}, base, "interrupt handler entry", _spec.rxHandlerEntry,
         cost);

    while (true) {
        auto &ring_desc = _nic.rxDesc(kernelRxHead);
        if (!ring_desc.complete)
            break;
        // Capture the custody state before the slot is re-armed.
        obs::TraceContext ctx = ring_desc.trace;
        step(ctx, base, "poll device recv ring", _spec.rxPollRing, cost);

        auto frame = eth::Frame::parse(
            mem.region(ring_desc.bufOffset, ring_desc.frameLength));

        // Re-arm the ring slot right away (FIFO reuse).
        ring_desc.complete = false;
        ring_desc.own = true;
        kernelRxHead = (kernelRxHead + 1) % _nic.rxRingSize();

        std::size_t skip = _spec.extraHeaderBytes();
        if (_spec.ipv4Encapsulation)
            cost += _spec.ipv4Cost;
        if (!frame ||
            frame->payload.size() < unetHeaderBytes + skip) {
            ++_badFrame;
            continue;
        }

        PortId dst_port = frame->payload[skip + 0];
        PortId src_port = frame->payload[skip + 1];
        std::uint32_t msg_len =
            (static_cast<std::uint32_t>(frame->payload[skip + 2])
             << 8) |
            frame->payload[skip + 3];
        if (msg_len + unetHeaderBytes + skip > frame->payload.size()) {
            ++_badFrame;
            continue;
        }

        step(ctx, base, "demux to correct endpoint", _spec.rxDemux,
             cost);
        EpState *statep = portTable[dst_port];
        if (!statep) {
            ++_unknownPort;
            continue;
        }
        EpState &state = *statep;
        // The channel-tag table the demux searches next is part of the
        // endpoint's paged kernel state; a cold endpoint pays the
        // page-in before the handler can translate the tag. (Delivery
        // itself writes host-resident rings and buffers, so no pin is
        // needed beyond the handler.)
        if (sim::Tick fault = _residency.touch(state.ep->id()))
            step(ctx, base, "page in endpoint state", fault, cost);
        const std::uint64_t tag = tagKey(frame->src, src_port);
        auto cit = std::lower_bound(
            state.demux.begin(), state.demux.end(), tag,
            [](const auto &entry, std::uint64_t k) {
                return entry.first < k;
            });
        if (cit == state.demux.end() || cit->first != tag) {
            ++_noChannel;
            continue;
        }
        Endpoint *ep = state.ep;

        RxDelivery d;
        d.ep = ep;
        RecvDescriptor &rd = d.rd;
        rd.channel = cit->second;
        rd.length = msg_len;
        rd.trace = ctx;
        const std::size_t msg_off = unetHeaderBytes + skip;

        if (msg_len <= smallMessageMax &&
            _spec.smallMessageOptimization) {
            // "small messages (under 64 bytes) are copied directly into
            // the U-Net receive descriptor itself"
            step(ctx, base, "alloc+init U-Net recv descriptor",
                 _spec.rxInitDescr, cost);
            if (_spec.chargeRxCopy)
                step(ctx, base, "copy message",
                     cpu.spec().memcpyTime(msg_len), cost);
            rd.isSmall = true;
            std::copy_n(frame->payload.begin() +
                            static_cast<std::ptrdiff_t>(msg_off),
                        msg_len, rd.inlineData.begin());
        } else {
            step(ctx, base, "allocate U-Net recv buffer",
                 _spec.rxAllocBuffer, cost);
            // Fill one or more free buffers. Keep the original
            // free-queue entries: the descriptor references may be
            // truncated to the message length, but drop paths must
            // recycle whole buffers.
            rd.isSmall = false;
            std::uint32_t copied = 0;
            bool ok = true;
            while (copied < msg_len) {
                if (rd.bufferCount == maxFragments) {
                    ok = false;
                    break;
                }
                std::optional<BufferRef> buf;
                {
                    check::ContextGuard::Scope scope(
                        ep->freeGuard(), "kernel rx buffer claim");
                    buf = ep->freeQueue().pop();
                }
                if (!buf) {
                    ok = false;
                    break;
                }
                ep->ownership().claimRecv(*buf);
                d.claimed[rd.bufferCount] = *buf;
                std::uint32_t chunk =
                    std::min(buf->length, msg_len - copied);
                rd.buffers[rd.bufferCount++] = {buf->offset, chunk};
                copied += chunk;
            }
            if (!ok) {
                ++_noFreeBuf;
                // Return claimed buffers and drop the message.
                for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
                    recycleRxBuffer(*ep, d.claimed[i]);
                continue;
            }
            step(ctx, base, "init descriptor buffer pointers",
                 _spec.rxInitDescrPtrs, cost);
            if (_spec.chargeRxCopy)
                step(ctx, base, "copy message",
                     cpu.spec().memcpyTime(msg_len), cost);
            d.framePayload = std::move(frame->payload);
            d.messageOffset = msg_off;
        }
        deliveries.push_back(std::move(d));
        step(ctx, base, "bump device recv ring", _spec.rxBumpRing, cost);
    }
    step({}, base, "return from interrupt", _spec.rxReturn, cost);

    cpu.runKernel(cost,
                  [this, deliveries = std::move(deliveries)]() mutable {
                      for (auto &d : deliveries)
                          deliver(d);
                  });
}

void
UNetFe::deliver(RxDelivery &d)
{
    Endpoint *ep = d.ep;
    RecvDescriptor &rd = d.rd;
    std::size_t off = d.messageOffset;
    for (std::uint8_t i = 0; i < rd.bufferCount; ++i) {
        ep->ownership().rxWrite(rd.buffers[i]);
        ep->buffers().write(rd.buffers[i],
                            std::span(d.framePayload)
                                .subspan(off, rd.buffers[i].length));
        off += rd.buffers[i].length;
    }
#if UNET_TRACE
    if (auto *tr = _host.simulation().trace())
        tr->hop(rd.trace, obs::SpanKind::RxKernel, _trackCpu,
                _host.simulation().now());
#endif
    if (ep->deliver(rd)) {
        ++_delivered;
    } else {
        // Receive queue full: the message is lost, but the buffers must
        // not leak with it.
        for (std::uint8_t i = 0; i < rd.bufferCount; ++i)
            recycleRxBuffer(*ep, d.claimed[i]);
    }
}

} // namespace unet
