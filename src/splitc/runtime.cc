#include "splitc/runtime.hh"

#include "sim/logging.hh"

namespace unet::splitc {

using am::Args;
using am::Token;
using am::Word;

Runtime::Runtime(UNet &unet, Endpoint &ep, int self, int nprocs,
                 std::size_t heap_bytes, am::AmSpec am_spec)
    : unet(unet), ep(ep), _self(self), _procs(nprocs),
      _am(unet, ep, am_spec), heap(heap_bytes),
      channels(static_cast<std::size_t>(nprocs), invalidChannel)
{
    stateGuard.setLabel(unet.host().name() + ".splitc.state");

    // Bulk-store payloads land directly in the heap.
    _am.setBulkSink([this](std::uint32_t addr,
                           std::span<const std::uint8_t> data) {
        std::uint8_t *dst = heapAt(addr, data.size());
        std::memcpy(dst, data.data(), data.size());
    });

    // Reserved handlers.
    hGetReq = registerHandler([this](sim::Process &proc, Token tok,
                                     const Args &args,
                                     std::span<const std::uint8_t>) {
        // {remote_addr, len, requester_local_addr, requester}: ship the
        // bytes back as a store completing with hGetDone.
        const std::uint8_t *src = heapAt(args[0], args[1]);
        if (!_am.store(proc, tok.channel, args[2], {src, args[1]},
                       hGetDone))
            UNET_FATAL("node ", _self, ": get-reply channel died");
    });
    hGetDone = registerHandler([this](sim::Process &, Token,
                                      const Args &,
                                      std::span<const std::uint8_t>) {
        stateGuard.mutate("get-done handler");
        ++getsDone;
    });
    hBarrier = registerHandler([this](sim::Process &, Token,
                                      const Args &args,
                                      std::span<const std::uint8_t>) {
        stateGuard.mutate("barrier handler");
        ++barrierSeen[{args[0], args[1]}];
    });
}

void
Runtime::setChannel(int peer, ChannelId chan)
{
    channels.at(static_cast<std::size_t>(peer)) = chan;
    _am.openChannel(chan);
}

ChannelId
Runtime::channelTo(int peer) const
{
    ChannelId chan = channels.at(static_cast<std::size_t>(peer));
    if (chan == invalidChannel)
        UNET_PANIC("node ", _self, " has no channel to node ", peer);
    return chan;
}

HeapAddr
Runtime::allocBytes(std::size_t bytes, std::size_t align)
{
    stateGuard.mutate("heap alloc");
    std::size_t off = (heapBrk + align - 1) & ~(align - 1);
    if (off + bytes > heap.size())
        UNET_FATAL("Split-C heap exhausted on node ", _self, ": need ",
                   bytes, " bytes, ", heap.size() - heapBrk, " remain");
    heapBrk = off + bytes;
    return static_cast<HeapAddr>(off);
}

std::uint8_t *
Runtime::heapAt(HeapAddr addr, std::size_t len)
{
    stateGuard.mutate("heap access");
    if (addr + len > heap.size())
        UNET_PANIC("heap access [", addr, "+", len, ") beyond ",
                   heap.size(), " on node ", _self);
    return heap.data() + addr;
}

HeapAddr
Runtime::scratchFor(const std::string &key, std::size_t bytes)
{
    stateGuard.mutate("scratch lookup");
    auto it = scratch.find(key);
    if (it != scratch.end())
        return it->second;
    HeapAddr addr = allocBytes(bytes, 8);
    scratch.emplace(key, addr);
    return addr;
}

void
Runtime::readBytes(sim::Process &proc, int node, HeapAddr addr,
                   std::span<std::uint8_t> out)
{
    check::assertCaller(proc, "splitc read");
    if (node == _self) {
        std::memcpy(out.data(), heapAt(addr, out.size()), out.size());
        chargeTime(proc, unet.host().cpu().spec().memcpyTime(out.size()));
        return;
    }
    CommTimer t(*this);
    // Stage through a local bounce buffer in the heap (remote stores
    // can only target heap addresses), then copy out.
    HeapAddr stage = scratchFor("read-stage", readStageBytes);
    std::size_t off = 0;
    while (off < out.size()) {
        std::uint32_t chunk = static_cast<std::uint32_t>(
            std::min<std::size_t>(readStageBytes, out.size() - off));
        get(proc, node, addr + static_cast<HeapAddr>(off), stage, chunk);
        _am.pollUntil(proc, [this] { return getsDone == getsIssued; });
        std::memcpy(out.data() + off, heapAt(stage, chunk), chunk);
        off += chunk;
    }
    chargeTime(proc, unet.host().cpu().spec().memcpyTime(out.size()));
}

void
Runtime::writeBytes(sim::Process &proc, int node, HeapAddr addr,
                    std::span<const std::uint8_t> data)
{
    check::assertCaller(proc, "splitc write");
    if (node == _self) {
        std::memcpy(heapAt(addr, data.size()), data.data(), data.size());
        chargeTime(proc,
                   unet.host().cpu().spec().memcpyTime(data.size()));
        return;
    }
    CommTimer t(*this);
    // ACKed delivery doubles as remote completion: the receiving AM
    // layer writes the sink before acknowledging.
    if (!_am.store(proc, channelTo(node), addr, data))
        UNET_FATAL("node ", _self, ": channel to node ", node,
                   " died during write");
    _am.drain(proc);
}

void
Runtime::get(sim::Process &proc, int node, HeapAddr remote_addr,
             HeapAddr local_addr, std::uint32_t len)
{
    if (node == _self) {
        std::memcpy(heapAt(local_addr, len), heapAt(remote_addr, len),
                    len);
        chargeTime(proc, unet.host().cpu().spec().memcpyTime(len));
        return;
    }
    CommTimer t(*this);
    stateGuard.mutate("get issue");
    ++getsIssued;
    if (!_am.request(proc, channelTo(node), hGetReq,
                     {remote_addr, len, local_addr,
                      static_cast<Word>(_self)}))
        UNET_FATAL("node ", _self, ": channel to node ", node,
                   " died during get");
}

void
Runtime::put(sim::Process &proc, int node, HeapAddr remote_addr,
             std::span<const std::uint8_t> data)
{
    if (node == _self) {
        std::memcpy(heapAt(remote_addr, data.size()), data.data(),
                    data.size());
        chargeTime(proc,
                   unet.host().cpu().spec().memcpyTime(data.size()));
        return;
    }
    CommTimer t(*this);
    if (!_am.store(proc, channelTo(node), remote_addr, data))
        UNET_FATAL("node ", _self, ": channel to node ", node,
                   " died during put");
}

void
Runtime::sync(sim::Process &proc)
{
    CommTimer t(*this);
    _am.pollUntil(proc, [this] { return getsDone == getsIssued; });
    _am.drain(proc);
}

void
Runtime::storeTo(sim::Process &proc, int node, HeapAddr remote_addr,
                 std::span<const std::uint8_t> data)
{
    put(proc, node, remote_addr, data);
}

void
Runtime::allStoreSync(sim::Process &proc)
{
    CommTimer t(*this);
    // ACK receipt implies the receiver's AM layer has written the
    // payload to its sink, so drain + barrier gives global completion.
    _am.drain(proc);
    barrier(proc);
}

void
Runtime::barrier(sim::Process &proc)
{
    if (_procs == 1)
        return;
    check::assertCaller(proc, "splitc barrier");
    CommTimer t(*this);
    stateGuard.mutate("barrier epoch");
    std::uint64_t epoch = ++barrierEpoch;

    // Dissemination barrier: log2(n) rounds.
    for (std::uint32_t round = 0; (1u << round) < static_cast<std::uint32_t>(_procs);
         ++round) {
        int to = (_self + (1 << round)) % _procs;
        if (!_am.request(proc, channelTo(to), hBarrier,
                         {static_cast<Word>(epoch), round, 0, 0}))
            UNET_FATAL("node ", _self, ": channel to node ", to,
                       " died during barrier");
        _am.pollUntil(proc, [this, epoch, round] {
            auto it = barrierSeen.find({epoch, round});
            return it != barrierSeen.end() && it->second >= 1;
        });
        barrierSeen.erase({epoch, round});
    }
}

std::uint64_t
Runtime::allReduceSum(sim::Process &proc, std::uint64_t value)
{
    if (_procs == 1)
        return value;
    CommTimer t(*this);
    HeapAddr stage = scratchFor(
        "reduce-stage", static_cast<std::size_t>(_procs) * 8);
    HeapAddr result = scratchFor("reduce-result", 8);

    writeBytes(proc, 0, stage + static_cast<HeapAddr>(_self) * 8,
               {reinterpret_cast<const std::uint8_t *>(&value), 8});
    barrier(proc);
    if (_self == 0) {
        std::uint64_t sum = 0;
        auto *vals = reinterpret_cast<std::uint64_t *>(
            heapAt(stage, static_cast<std::size_t>(_procs) * 8));
        for (int i = 0; i < _procs; ++i)
            sum += vals[i];
        chargeIntOps(proc, static_cast<std::uint64_t>(_procs));
        std::memcpy(heapAt(result, 8), &sum, 8);
        for (int peer = 1; peer < _procs; ++peer)
            writeBytes(proc, peer, result,
                       {reinterpret_cast<const std::uint8_t *>(&sum),
                        8});
    }
    barrier(proc);
    std::uint64_t out = 0;
    std::memcpy(&out, heapAt(result, 8), 8);
    return out;
}

std::uint64_t
Runtime::allReduceMax(sim::Process &proc, std::uint64_t value)
{
    if (_procs == 1)
        return value;
    CommTimer t(*this);
    HeapAddr stage = scratchFor(
        "reduce-stage", static_cast<std::size_t>(_procs) * 8);
    HeapAddr result = scratchFor("reduce-result", 8);

    writeBytes(proc, 0, stage + static_cast<HeapAddr>(_self) * 8,
               {reinterpret_cast<const std::uint8_t *>(&value), 8});
    barrier(proc);
    if (_self == 0) {
        std::uint64_t best = 0;
        auto *vals = reinterpret_cast<std::uint64_t *>(
            heapAt(stage, static_cast<std::size_t>(_procs) * 8));
        for (int i = 0; i < _procs; ++i)
            best = std::max(best, vals[i]);
        chargeIntOps(proc, static_cast<std::uint64_t>(_procs));
        std::memcpy(heapAt(result, 8), &best, 8);
        for (int peer = 1; peer < _procs; ++peer)
            writeBytes(proc, peer, result,
                       {reinterpret_cast<const std::uint8_t *>(&best),
                        8});
    }
    barrier(proc);
    std::uint64_t out = 0;
    std::memcpy(&out, heapAt(result, 8), 8);
    return out;
}

void
Runtime::allReduceSumVec(sim::Process &proc, std::uint64_t *data,
                         std::size_t count)
{
    if (_procs == 1)
        return;
    CommTimer t(*this);
    std::size_t bytes = count * 8;
    HeapAddr stage = scratchFor(
        "vecreduce-stage-" + std::to_string(count),
        static_cast<std::size_t>(_procs) * bytes);
    HeapAddr result = scratchFor(
        "vecreduce-result-" + std::to_string(count), bytes);

    writeBytes(proc, 0,
               stage + static_cast<HeapAddr>(_self * bytes),
               {reinterpret_cast<const std::uint8_t *>(data), bytes});
    barrier(proc);
    if (_self == 0) {
        auto *acc = reinterpret_cast<std::uint64_t *>(
            heapAt(result, bytes));
        std::memset(acc, 0, bytes);
        auto *vals = reinterpret_cast<std::uint64_t *>(
            heapAt(stage, static_cast<std::size_t>(_procs) * bytes));
        for (int p = 0; p < _procs; ++p)
            for (std::size_t i = 0; i < count; ++i)
                acc[i] += vals[static_cast<std::size_t>(p) * count + i];
        chargeIntOps(proc,
                     static_cast<std::uint64_t>(_procs) * count);
        for (int peer = 1; peer < _procs; ++peer)
            writeBytes(proc, peer, result,
                       {reinterpret_cast<const std::uint8_t *>(acc),
                        bytes});
    }
    barrier(proc);
    std::memcpy(data, heapAt(result, bytes), bytes);
    chargeTime(proc, unet.host().cpu().spec().memcpyTime(bytes));
}

void
Runtime::broadcastBytes(sim::Process &proc, int root, HeapAddr addr,
                        std::uint32_t len)
{
    if (_procs == 1)
        return;
    CommTimer t(*this);
    if (_self == root) {
        const std::uint8_t *src = heapAt(addr, len);
        for (int peer = 0; peer < _procs; ++peer)
            if (peer != root)
                storeTo(proc, peer, addr, {src, len});
        _am.drain(proc);
    }
    barrier(proc);
}

am::HandlerId
Runtime::registerHandler(am::ActiveMessages::Handler fn)
{
    // The constructor grabs the first few ids for the runtime's own
    // handlers; applications get the rest.
    static_assert(am::ActiveMessages::noHandler == 0xFF);
    if (nextHandler == am::ActiveMessages::noHandler)
        UNET_FATAL("handler space exhausted on node ", _self);
    am::HandlerId id = nextHandler++;
    _am.setHandler(id, std::move(fn));
    return id;
}

void
Runtime::chargeFlops(sim::Process &proc, std::uint64_t n)
{
    chargeTime(proc,
               static_cast<sim::Tick>(n) *
                   unet.host().cpu().spec().flopCost);
}

void
Runtime::chargeIntOps(sim::Process &proc, std::uint64_t n)
{
    chargeTime(proc,
               static_cast<sim::Tick>(n) *
                   unet.host().cpu().spec().intOpCost);
}

void
Runtime::chargeTime(sim::Process &proc, sim::Tick t)
{
    _profile.compute += t;
    unet.host().cpu().busy(proc, t);
}

} // namespace unet::splitc
