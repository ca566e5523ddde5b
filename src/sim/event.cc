#include "sim/event.hh"

#include <algorithm>
#include <array>

#include "sim/logging.hh"

namespace unet::sim {

EventQueue::~EventQueue()
{
    // Destroy the callables of still-pending events; cancelled and fired
    // slots were already cleaned when they were released.
    while (!heap.empty()) {
        HeapEntry entry = heap.front();
        popHeap();
        if (live(entry)) {
            Record &rec = recordAt(entry.slot);
            destroyAction(rec);
            rec.state = Record::State::free;
        }
    }
}

void
EventQueue::panicEmptyAction()
{
    UNET_PANIC("event scheduled with empty action");
}

void
EventQueue::panicPastEvent(Tick when) const
{
    UNET_PANIC("event scheduled in the past: when=", when, " now=", _now);
}

void
EventQueue::setPerturbSalt(std::uint64_t salt)
{
    if (_livePending != 0 || _firedCount != 0 || !heap.empty())
        UNET_PANIC("setPerturbSalt on a non-idle queue: heaped entries "
                   "carry keys computed under the old salt");
    _perturbSalt = salt;
}

void
EventQueue::growPool()
{
    // Grow the slab by one chunk and thread it onto the free list. In
    // perturbation mode the threading order is a salted permutation:
    // record slot numbers (and so record addresses) then differ
    // between salts, which trips anything keying behaviour off them.
    auto base = static_cast<std::uint32_t>(poolCapacity());
    chunks.push_back(std::make_unique<Record[]>(chunkRecords));
    std::array<std::uint32_t, chunkRecords> order;
    for (std::size_t i = 0; i < chunkRecords; ++i)
        order[i] = static_cast<std::uint32_t>(i);
    if (_perturbSalt != 0) {
        for (std::size_t i = chunkRecords - 1; i > 0; --i) {
            std::size_t j = static_cast<std::size_t>(
                perturb::mix(_perturbSalt, (base + i) * 2654435761u) %
                (i + 1));
            std::swap(order[i], order[j]);
        }
    }
    for (std::size_t i = chunkRecords; i-- > 0;) {
        Record &rec = chunks.back()[order[i]];
        rec.nextFree = freeHead;
        freeHead = base + order[i];
    }
}

void
EventQueue::compactIfWorthwhile()
{
    // Rebuild only once dead entries dominate: below that, lazy pops
    // absorb them for free. The floor avoids thrashing tiny queues.
    if (heap.size() < 64 || _deadInHeap * 2 <= heap.size())
        return;
    std::erase_if(heap,
                  [this](const HeapEntry &entry) { return !live(entry); });
    std::make_heap(heap.begin(), heap.end(), laterThan);
    _deadInHeap = 0;
    ++_compactions;
}

bool
EventQueue::stepChoice()
{
    // Purge stale entries so the true minimum tick is on top.
    dropDeadTop();
    if (heap.empty())
        return false;

    const Tick when = heap.front().when;

    // Gather the eligible set: every live permutable entry at the
    // minimum tick, plus the earliest-scheduled dependent entry there
    // (later dependents must wait behind it — the FIFO contract). The
    // heap array is scanned linearly; explored configs are small.
    struct Eligible
    {
        ScheduleArbiter::Candidate candidate;
        std::size_t heapIndex;
    };
    std::vector<Eligible> eligible;
    std::size_t depIndex = heap.size();
    std::uint64_t depSeq = ~std::uint64_t{0};
    for (std::size_t i = 0; i < heap.size(); ++i) {
        const HeapEntry &entry = heap[i];
        if (entry.when != when || !live(entry))
            continue;
        if (recordAt(entry.slot).order == Order::dependent) {
            if (entry.seq < depSeq) {
                depSeq = entry.seq;
                depIndex = i;
            }
        } else {
            eligible.push_back(
                {{when, entry.seq, Order::permutable}, i});
        }
    }
    if (depIndex != heap.size())
        eligible.push_back({{when, depSeq, Order::dependent}, depIndex});

    // Canonical presentation: seq ascending, so candidate 0 is the
    // choice the unperturbed FIFO schedule would make.
    std::sort(eligible.begin(), eligible.end(),
              [](const Eligible &a, const Eligible &b) {
                  return a.candidate.seq < b.candidate.seq;
              });

    std::size_t chosen = 0;
    if (eligible.size() > 1) {
        std::vector<ScheduleArbiter::Candidate> candidates;
        candidates.reserve(eligible.size());
        for (const Eligible &e : eligible)
            candidates.push_back(e.candidate);
        chosen = _arbiter->pick(when, candidates);
        if (chosen >= eligible.size())
            UNET_PANIC("arbiter picked candidate ", chosen, " of ",
                       eligible.size());
    }

    HeapEntry entry = heap[eligible[chosen].heapIndex];
    eraseHeapAt(eligible[chosen].heapIndex);
    fireEntry(entry);
    return true;
}

void
EventQueue::eraseHeapAt(std::size_t i)
{
    HeapEntry tail = heap.back();
    heap.pop_back();
    if (i == heap.size())
        return;
    // Sift the relocated tail entry toward the root, then toward the
    // leaves; at most one direction actually moves it.
    while (i > 0) {
        std::size_t parent = (i - 1) / 2;
        if (!laterThan(heap[parent], tail))
            break;
        heap[i] = heap[parent];
        i = parent;
    }
    std::size_t n = heap.size();
    for (;;) {
        std::size_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && laterThan(heap[child], heap[child + 1]))
            ++child;
        if (!laterThan(tail, heap[child]))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = tail;
}

std::vector<std::pair<Tick, Order>>
EventQueue::pendingProfile() const
{
    std::vector<std::pair<Tick, Order>> profile;
    profile.reserve(_livePending);
    for (const HeapEntry &entry : heap)
        if (live(entry))
            profile.emplace_back(entry.when - _now,
                                 recordAt(entry.slot).order);
    std::sort(profile.begin(), profile.end());
    return profile;
}

/** Sets the in-place limit, and restores it on every exit: a panic
 *  thrown out of run() must not leave the fast path on for step(). */
class EventQueue::InPlaceWindow
{
  public:
    InPlaceWindow(EventQueue &q, Tick limit) : q(q), saved(q._inPlaceLimit)
    {
        q._inPlaceLimit = limit;
    }
    ~InPlaceWindow() { q._inPlaceLimit = saved; }

    InPlaceWindow(const InPlaceWindow &) = delete;
    InPlaceWindow &operator=(const InPlaceWindow &) = delete;

  private:
    EventQueue &q;
    Tick saved;
};

void
EventQueue::dropDeadTop()
{
    while (!heap.empty() && !live(heap.front())) {
        popHeap();
        --_deadInHeap;
    }
}

Tick
EventQueue::run()
{
    InPlaceWindow window(*this, maxTick);
    while (step()) {
    }
    return _now;
}

Tick
EventQueue::runUntil(Tick limit)
{
    InPlaceWindow window(*this, limit);
    dropDeadTop();
    while (!heap.empty() && heap.front().when <= limit) {
        step();
        dropDeadTop();
    }
    if (_now < limit && heap.empty())
        return _now;
    if (_now < limit)
        _now = limit;
    return _now;
}

} // namespace unet::sim
