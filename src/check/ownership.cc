#include "check/ownership.hh"

#include "sim/logging.hh"
#include "sim/perturb.hh"

namespace unet::check {

const char *
name(BufState state)
{
    switch (state) {
      case BufState::TxPosted:
        return "posted-to-send";
      case BufState::TxAgent:
        return "agent-owned (tx gather)";
      case BufState::RxPosted:
        return "rx-posted (free queue)";
      case BufState::RxAgent:
        return "agent-owned (rx fill)";
      case BufState::Delivered:
        return "delivered";
    }
    return "unknown";
}

#if defined(UNET_CHECK) && UNET_CHECK

void
OwnershipTracker::checkBounds(BufferRef ref, const char *op) const
{
    if (static_cast<std::size_t>(ref.offset) + ref.length > areaBytes)
        UNET_PANIC(op, ": descriptor [", ref.offset, "+", ref.length,
                   "] outside the ", areaBytes, "-byte buffer area");
}

void
OwnershipTracker::checkNoOverlap(BufferRef ref, const char *op) const
{
    std::uint32_t end = ref.offset + ref.length;
    auto it = regions.upper_bound(ref.offset);
    if (it != regions.begin()) {
        auto prev = std::prev(it);
        if (prev->first + prev->second.length > ref.offset)
            UNET_PANIC(op, ": [", ref.offset, "+", ref.length,
                       "] overlaps region [", prev->first, "+",
                       prev->second.length, "] in state ",
                       name(prev->second.state));
    }
    if (it != regions.end() && it->first < end)
        UNET_PANIC(op, ": [", ref.offset, "+", ref.length,
                   "] overlaps region [", it->first, "+",
                   it->second.length, "] in state ",
                   name(it->second.state));
}

OwnershipTracker::Region *
OwnershipTracker::findExact(BufferRef ref)
{
    auto it = regions.find(ref.offset);
    return it == regions.end() ? nullptr : &it->second;
}

OwnershipTracker::Region *
OwnershipTracker::findContaining(BufferRef ref)
{
    auto it = regions.upper_bound(ref.offset);
    if (it == regions.begin())
        return nullptr;
    --it;
    if (it->first + it->second.length <
        static_cast<std::size_t>(ref.offset) + ref.length)
        return nullptr;
    return &it->second;
}

void
OwnershipTracker::transition(BufferRef ref, BufState from, BufState to,
                             const char *op)
{
    Region *region = findExact(ref);
    if (!region)
        return; // posted outside the tracked API (boot-time / tests)
    if (region->state != from)
        UNET_PANIC(op, ": region [", ref.offset, "+", region->length,
                   "] is ", name(region->state), ", expected ",
                   name(from));
    if (ref.length > region->length)
        UNET_PANIC(op, ": reference [", ref.offset, "+", ref.length,
                   "] exceeds the ", region->length,
                   "-byte region posted there");
    region->state = to;
}

void
OwnershipTracker::postSend(BufferRef ref)
{
    if (ref.length == 0)
        return;
    checkBounds(ref, "postSend");
    checkNoOverlap(ref, "postSend");
    regions[ref.offset] = {ref.length, BufState::TxPosted};
}

void
OwnershipTracker::postFree(BufferRef ref)
{
    if (ref.length == 0)
        return;
    checkBounds(ref, "postFree");
    checkNoOverlap(ref, "postFree");
    regions[ref.offset] = {ref.length, BufState::RxPosted};
}

void
OwnershipTracker::claimSend(BufferRef ref)
{
    transition(ref, BufState::TxPosted, BufState::TxAgent, "claimSend");
}

void
OwnershipTracker::releaseSend(BufferRef ref)
{
    Region *region = findExact(ref);
    if (!region)
        return;
    if (region->state != BufState::TxPosted &&
        region->state != BufState::TxAgent)
        UNET_PANIC("releaseSend: region [", ref.offset, "+",
                   region->length, "] is ", name(region->state));
    regions.erase(ref.offset);
}

void
OwnershipTracker::claimRecv(BufferRef ref)
{
    transition(ref, BufState::RxPosted, BufState::RxAgent, "claimRecv");
}

void
OwnershipTracker::unclaimRecv(BufferRef ref)
{
    transition(ref, BufState::RxAgent, BufState::RxPosted,
               "unclaimRecv");
}

void
OwnershipTracker::releaseRecv(BufferRef ref)
{
    Region *region = findExact(ref);
    if (!region)
        return;
    if (region->state != BufState::RxAgent)
        UNET_PANIC("releaseRecv: region [", ref.offset, "+",
                   region->length, "] is ", name(region->state));
    regions.erase(ref.offset);
}

void
OwnershipTracker::rxWrite(BufferRef ref)
{
    if (ref.length == 0)
        return;
    checkBounds(ref, "rxWrite");
    Region *region = findContaining(ref);
    if (!region)
        return; // buffer never went through the tracked API
    if (region->state != BufState::RxAgent)
        UNET_PANIC("rxWrite: receive data written into [", ref.offset,
                   "+", ref.length, "] which is ", name(region->state));
}

void
OwnershipTracker::deliver(BufferRef ref)
{
    transition(ref, BufState::RxAgent, BufState::Delivered, "deliver");
}

void
OwnershipTracker::consume(BufferRef ref)
{
    Region *region = findExact(ref);
    if (!region)
        return;
    if (region->state != BufState::Delivered)
        UNET_PANIC("consume: region [", ref.offset, "+", region->length,
                   "] is ", name(region->state), ", expected delivered");
    // The application regains the whole posted buffer, including any
    // tail the message did not fill.
    regions.erase(ref.offset);
}

std::size_t
OwnershipTracker::bytesIn(BufState state) const
{
    std::size_t total = 0;
    for (const auto &[offset, region] : regions)
        if (region.state == state)
            total += region.length;
    return total;
}

std::uint64_t
OwnershipTracker::stateHash() const
{
    // regions is ordered by offset, so this is schedule-independent.
    std::uint64_t h = sim::perturb::mix(0x6f776e, areaBytes);
    for (const auto &[offset, region] : regions)
        h = sim::perturb::mix(
            h, (static_cast<std::uint64_t>(offset) << 32) ^
                   (static_cast<std::uint64_t>(region.length) << 8) ^
                   static_cast<std::uint64_t>(region.state));
    return h;
}

#endif // UNET_CHECK

} // namespace unet::check
