/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are arbitrary callbacks scheduled at an absolute tick. Events
 * scheduled for the same tick fire in scheduling order (FIFO), which keeps
 * runs deterministic. Scheduled events can be cancelled through the
 * EventHandle returned at scheduling time.
 *
 * Under the UNET_PERTURB run mode (sim/perturb.hh) the same-tick order
 * of events not annotated Order::dependent is deterministically
 * permuted per salt — the determinism auditor's race detector. Models
 * must produce identical simulated results under every salt.
 *
 * The queue is allocation-free in steady state: event records live in a
 * slab of fixed-size slots threaded on a free list, and callables whose
 * captures fit the small-buffer area (EventQueue::sboBytes) are stored
 * in-place in the record. Larger callables fall back to one heap
 * allocation each; heapCallableAllocs() counts them so benchmarks and
 * tests can assert the hot paths stay on the inline route. Handles carry
 * the record's schedule-time sequence number as a generation tag, so a
 * stale handle (its event fired or was cancelled, and the slot may have
 * been reused) is always a harmless no-op.
 */

#ifndef UNET_SIM_EVENT_HH
#define UNET_SIM_EVENT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/perturb.hh"
#include "sim/time.hh"

namespace unet::sim {

class EventQueue;
class Process;

/**
 * A cancellable reference to a scheduled event.
 *
 * Handles are cheap to copy; cancelling an already-fired or
 * already-cancelled event is a harmless no-op. A default-constructed
 * handle refers to nothing.
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** True if this handle refers to an event that has not yet fired. */
    bool pending() const;

    /** Cancel the referenced event if it is still pending. */
    void cancel();

  private:
    friend class EventQueue;

    EventHandle(EventQueue *queue, std::uint32_t slot, std::uint64_t seq)
        : queue(queue), slot(slot), seq(seq)
    {}

    EventQueue *queue = nullptr;
    std::uint32_t slot = 0;
    std::uint64_t seq = 0;
};

/**
 * Same-tick scheduling controller: the model checker's choice point.
 *
 * When installed on an EventQueue, every step() where more than one
 * event is eligible to fire first becomes an explicit decision: the
 * queue collects the eligible set — each pending Order::permutable
 * event at the minimum tick, plus the earliest-scheduled
 * Order::dependent event at that tick (firing a later dependent event
 * first would break the documented FIFO contract among dependents) —
 * sorts it by scheduling sequence number (so index 0 reproduces the
 * unperturbed FIFO schedule), and asks the arbiter which fires. The
 * schedule-space explorer in src/check/explore/ implements this
 * interface to enumerate interleavings; the salted tie-break keys are
 * bypassed entirely while an arbiter is installed.
 */
class ScheduleArbiter
{
  public:
    /** One eligible event at a choice point. */
    struct Candidate
    {
        Tick when;         ///< the minimum pending tick
        std::uint64_t seq; ///< schedule-time sequence number
        Order order;
    };

    virtual ~ScheduleArbiter() = default;

    /**
     * Choose which candidate fires next. Called only when at least two
     * events are eligible; @p candidates is sorted by seq ascending.
     * @return an index into @p candidates.
     */
    virtual std::size_t
    pick(Tick now, const std::vector<Candidate> &candidates) = 0;
};

/**
 * Observer of the scheduler's true ordering edges.
 *
 * Where ScheduleArbiter *decides* same-tick order, a TaskObserver
 * merely *watches* the edges that order work: an event's scheduling
 * context happens-before its firing, and a fiber's resume/suspend
 * brackets nest inside the event that resumed it. The happens-before
 * race auditor (src/check/hb/) implements this interface to maintain
 * vector clocks; the hooks are null-checked pointers, so an
 * uninstrumented run pays one branch per site.
 *
 * Hook contract: onEventScheduled() fires inside schedule(), in the
 * scheduling context; onEventFireBegin()/onEventFireEnd() bracket the
 * callback (End fires even when the callback throws); cancelled events
 * get onEventCancelled() instead of the fire pair. The fiber hooks
 * bracket Process::resume()'s transfer into the fiber and receive the
 * process so the observer can read its id and shard domain.
 */
class TaskObserver
{
  public:
    virtual ~TaskObserver() = default;

    virtual void onEventScheduled(std::uint64_t seq, Tick when,
                                  Order order) = 0;
    virtual void onEventFireBegin(std::uint64_t seq, Tick when,
                                  Order order) = 0;
    virtual void onEventFireEnd(std::uint64_t seq) = 0;
    virtual void onEventCancelled(std::uint64_t seq) = 0;

    virtual void onFiberResume(Process &proc) = 0;
    virtual void onFiberSuspend(Process &proc) = 0;
};

/**
 * Priority queue of timed events plus the simulated clock.
 *
 * The clock only advances when events fire; scheduling in the past is a
 * simulator bug and panics.
 */
class EventQueue
{
  public:
    /** Callables up to this capture size are stored in the record. */
    static constexpr std::size_t sboBytes = 64;

    EventQueue() = default;
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Number of events that have fired so far. */
    std::uint64_t firedCount() const { return _firedCount; }

    /** Number of live (scheduled, uncancelled, unfired) events. */
    std::size_t pendingCount() const { return _livePending; }

    /**
     * Schedule @p action to fire at absolute time @p when.
     *
     * @param when   Absolute tick; must be >= now().
     * @param action Callback invoked when the event fires. Captures up
     *               to sboBytes are stored inline in a pooled record;
     *               larger ones cost one heap allocation.
     * @param order  Order::permutable (default) lets perturbation mode
     *               reorder this event within its tick; annotate
     *               Order::dependent only for documented intra-tick
     *               ordering contracts (see sim/perturb.hh).
     * @return a handle that can cancel the event.
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&action, Order order = Order::permutable)
    {
        using Fn = std::decay_t<F>;
        if constexpr (requires { static_cast<bool>(action); }) {
            if (!static_cast<bool>(action))
                panicEmptyAction();
        }
        if (when < _now)
            panicPastEvent(when);

        std::uint32_t slot = allocSlot();
        Record &rec = recordAt(slot);
        rec.when = when;
        rec.seq = nextSeq++;
        rec.order = order;
        rec.state = Record::State::pending;
        if constexpr (sizeof(Fn) <= sboBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void *>(rec.store))
                Fn(std::forward<F>(action));
            rec.call = &callInline<Fn>;
            rec.drop = std::is_trivially_destructible_v<Fn>
                ? nullptr : &dropInline<Fn>;
        } else {
            auto *fn = new Fn(std::forward<F>(action));
            ::new (static_cast<void *>(rec.store)) Fn *(fn);
            rec.call = &callHeap<Fn>;
            rec.drop = &dropHeap<Fn>;
            ++_heapCallableAllocs;
        }
        // The same-tick tie-break key. Unperturbed (or order-dependent)
        // events keep their sequence number: exact FIFO. Under a salt,
        // permutable events get a scrambled key, which permutes each
        // tick's firing order deterministically per salt.
        std::uint64_t key =
            (order == Order::dependent || _perturbSalt == 0)
                ? rec.seq
                : perturb::mix(_perturbSalt, rec.seq);
        pushHeap(HeapEntry{when, key, rec.seq, slot});
        ++_livePending;
        if (_taskObserver) [[unlikely]]
            _taskObserver->onEventScheduled(rec.seq, when, order);
        return EventHandle(this, slot, rec.seq);
    }

    /** Schedule @p action to fire @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delay, F &&action, Order order = Order::permutable)
    {
        return schedule(_now + delay, std::forward<F>(action), order);
    }

    /**
     * Fire the next pending event, advancing the clock to its time.
     * Single-stepping fires every Process::delay() wake as an event of
     * its own: a delay called from an event fired here suspends its
     * fiber even when its wake is the next event (see run()), so a
     * caller that inspects state after each step sees every one.
     * @return false if the queue was empty.
     */
    bool
    step()
    {
        if (_arbiter) [[unlikely]]
            return stepChoice();
        while (!heap.empty()) {
            HeapEntry entry = heap.front();
            popHeap();
            if (!live(entry)) {
                --_deadInHeap;
                continue;
            }
            fireEntry(entry);
            return true;
        }
        return false;
    }

    /**
     * Run until the queue drains. @return the final simulated time.
     *
     * While it runs, a Process::delay() whose wake would be the next
     * event to fire advances the clock in place instead of suspending
     * its fiber; the wake is accounted as fired (inPlaceAdvances()).
     * The fast path is off while an arbiter or a task observer is
     * installed.
     */
    Tick run();

    /**
     * Run until the queue drains or the clock would pass @p limit.
     * Events scheduled at exactly @p limit do fire. Delays advance in
     * place as under run(), but never past @p limit: a wake beyond it
     * is queued, and its fiber resumes in a later run.
     * @return the final simulated time.
     */
    Tick runUntil(Tick limit);

    /** True if no uncancelled event is pending. */
    bool empty() const { return _livePending == 0; }

    /** @name Schedule perturbation (determinism auditing). @{ */

    /** The active perturbation salt (0 = FIFO, no perturbation). */
    std::uint64_t perturbSalt() const { return _perturbSalt; }

    /**
     * Override the salt latched from perturb::salt() at construction.
     * Only legal while the queue is completely idle (nothing pending,
     * nothing fired): already-heaped entries carry keys computed under
     * the old salt.
     */
    void setPerturbSalt(std::uint64_t salt);

    /** @} */

    /** @name Model checking (src/check/explore/). @{ */

    /** The installed same-tick arbiter, or nullptr. */
    ScheduleArbiter *arbiter() const { return _arbiter; }

    /**
     * Install (or clear, with nullptr) the same-tick choice-point
     * arbiter. Takes effect on the next step(); while installed, the
     * salted tie-break keys are ignored and the arbiter alone decides
     * same-tick order.
     */
    void setArbiter(ScheduleArbiter *arbiter) { _arbiter = arbiter; }

    /** The installed ordering-edge observer, or nullptr. */
    TaskObserver *taskObserver() const { return _taskObserver; }

    /**
     * Install (or clear, with nullptr) the ordering-edge observer.
     * Composes with an arbiter: arbitrated fires report through the
     * same fireEntry() bracket as salted ones.
     */
    void setTaskObserver(TaskObserver *observer)
    {
        _taskObserver = observer;
    }

    /**
     * The multiset of live pending events as (when - now, order)
     * pairs, sorted. Feeds the explorer's state digests: sequence
     * numbers are deliberately excluded because they encode schedule
     * history, and two states reached by different interleavings must
     * digest equal when their futures are indistinguishable.
     */
    std::vector<std::pair<Tick, Order>> pendingProfile() const;

    /** @} */

    /** @name Pool introspection (perf tests and benchmarks). @{ */

    /** Record slots ever allocated (slab capacity, in records). */
    std::size_t poolCapacity() const { return chunks.size() * chunkRecords; }

    /** Callables too big for the inline area (each cost one heap
     *  allocation). */
    std::uint64_t heapCallableAllocs() const { return _heapCallableAllocs; }

    /** Times the heap was rebuilt to purge cancelled entries. */
    std::uint64_t compactions() const { return _compactions; }

    /**
     * Process::delay() wakes fired in place, without a queued event or
     * a fiber switch (see run()); each is also counted in firedCount().
     * Deliberately not a registry metric: every simulated-output digest
     * mixes the whole registry, and this count differs by design
     * between the fast path and the slow one.
     */
    std::uint64_t inPlaceAdvances() const { return _inPlaceAdvances; }

    /** @} */

  private:
    friend class EventHandle;
    friend class Process;

    static constexpr std::size_t chunkRecords = 256;
    static constexpr std::uint32_t noSlot = ~std::uint32_t{0};

    /** One pooled event: timing, generation tag, and callable storage. */
    struct Record
    {
        enum class State : std::uint8_t { free, pending, firing };

        Tick when = 0;
        std::uint64_t seq = 0;       ///< doubles as the generation tag
        std::uint32_t nextFree = noSlot;
        State state = State::free;
        Order order = Order::permutable; ///< read at choice points
        void (*call)(Record &) = nullptr;
        void (*drop)(Record &) = nullptr;
        alignas(std::max_align_t) std::byte store[sboBytes];
    };

    struct HeapEntry
    {
        Tick when;
        std::uint64_t key; ///< same-tick tie-break (== seq unperturbed)
        std::uint64_t seq;
        std::uint32_t slot;
    };

    template <typename Fn>
    static void
    callInline(Record &rec)
    {
        (*std::launder(reinterpret_cast<Fn *>(rec.store)))();
    }

    template <typename Fn>
    static void
    dropInline(Record &rec)
    {
        std::launder(reinterpret_cast<Fn *>(rec.store))->~Fn();
    }

    template <typename Fn>
    static void
    callHeap(Record &rec)
    {
        (**std::launder(reinterpret_cast<Fn **>(rec.store)))();
    }

    template <typename Fn>
    static void
    dropHeap(Record &rec)
    {
        delete *std::launder(reinterpret_cast<Fn **>(rec.store));
    }

    Record &
    recordAt(std::uint32_t slot)
    {
        return chunks[slot / chunkRecords][slot % chunkRecords];
    }

    const Record &
    recordAt(std::uint32_t slot) const
    {
        return chunks[slot / chunkRecords][slot % chunkRecords];
    }

    /** False for an entry whose event was cancelled (lazy deletion). */
    bool
    live(const HeapEntry &entry) const
    {
        const Record &rec = recordAt(entry.slot);
        return rec.seq == entry.seq && rec.state == Record::State::pending;
    }

    /**
     * The fast path of Process::delay(@p d): if the wake it would
     * queue at now() + @p d is the next event to fire, account it as
     * fired (clock, sequence number, fired count) without queueing it.
     * Exact because the wake would be the unique heap minimum under
     * FIFO, any salt and any arbiter, so no callback can run before
     * it; an event already at now() + @p d fires first under FIFO, so
     * it blocks the fast path. Only inside run()/runUntil(), never past
     * runUntil()'s limit, and never with an arbiter or observer
     * installed: both see events one at a time.
     * @return false, with nothing changed, when the wake must be queued.
     */
    bool
    advanceInPlace(Tick d)
    {
        const Tick when = _now + d;
        if (when > _inPlaceLimit || _arbiter || _taskObserver)
            return false;
        // Drop the cancelled entries the wake would have been popped
        // after, and no others, so heap size and garbage (and with them
        // the compaction schedule) match the slow path.
        while (!heap.empty() && heap.front().when < when &&
               !live(heap.front())) {
            popHeap();
            --_deadInHeap;
        }
        if (!heap.empty() && heap.front().when <= when)
            return false;
        _now = when;
        ++nextSeq; // the wake's: later salted keys stay where they were
        ++_firedCount;
        ++_inPlaceAdvances;
        return true;
    }

    /** Opens the in-place window for one run()/runUntil() call. */
    class InPlaceWindow;

    /**
     * Min-heap order on (when, key, seq). Unperturbed, key == seq:
     * strict FIFO within a tick. Perturbed, permutable events carry a
     * salted key; seq breaks the (vanishingly rare) key collisions so
     * the schedule stays a total, reproducible order.
     */
    static bool
    laterThan(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        if (a.key != b.key)
            return a.key > b.key;
        return a.seq > b.seq;
    }

    [[noreturn]] static void panicEmptyAction();
    [[noreturn]] void panicPastEvent(Tick when) const;

    std::uint32_t
    allocSlot()
    {
        if (freeHead == noSlot)
            growPool();
        std::uint32_t slot = freeHead;
        freeHead = recordAt(slot).nextFree;
        return slot;
    }

    void
    releaseSlot(std::uint32_t slot)
    {
        Record &rec = recordAt(slot);
        rec.state = Record::State::free;
        rec.nextFree = freeHead;
        freeHead = slot;
    }

    /**
     * Releases a firing record on both exits: the callback's captures
     * are destroyed and the slot returns to the free list even when
     * the callback throws (panic-capture mode, sim/logging.hh).
     */
    struct FiringGuard
    {
        EventQueue &q;
        std::uint32_t slot;

        ~FiringGuard()
        {
            Record &rec = q.recordAt(slot);
            q.destroyAction(rec);
            q.releaseSlot(slot);
        }
    };

    /**
     * Closes the observer's fire bracket on both exits, so the
     * happens-before auditor's task stack stays balanced when a
     * callback throws (panic-capture mode). Declared after
     * FiringGuard in fireEntry(): the end hook runs before the
     * record's captures are destroyed.
     */
    struct ObserverFireGuard
    {
        TaskObserver *observer;
        std::uint64_t seq;

        ~ObserverFireGuard()
        {
            if (observer) [[unlikely]]
                observer->onEventFireEnd(seq);
        }
    };

    /** Advance the clock to @p entry and fire its record. */
    void
    fireEntry(const HeapEntry &entry)
    {
        Record &rec = recordAt(entry.slot);
        _now = entry.when;
        rec.state = Record::State::firing;
        --_livePending;
        ++_firedCount;
        // The slot stays off the free list while firing, so a callback
        // that schedules new events can never clobber the storage it is
        // executing from; its captures are destroyed after it returns
        // (or after an exception escapes it).
        FiringGuard guard{*this, entry.slot};
        ObserverFireGuard obsGuard{_taskObserver, entry.seq};
        if (_taskObserver) [[unlikely]]
            _taskObserver->onEventFireBegin(entry.seq, entry.when,
                                            rec.order);
        rec.call(rec);
    }

    void
    destroyAction(Record &rec)
    {
        // call/drop are left stale: every path that reads them first
        // checks the (seq, state) generation, and schedule() overwrites
        // them before arming a reused slot.
        if (rec.drop)
            rec.drop(rec);
    }

    /** Manual sift-up: inlines fully and writes the entry once. */
    void
    pushHeap(HeapEntry entry)
    {
        std::size_t i = heap.size();
        heap.push_back(entry);
        while (i > 0) {
            std::size_t parent = (i - 1) / 2;
            if (!laterThan(heap[parent], entry))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = entry;
    }

    /** Manual sift-down of the relocated tail entry. */
    void
    popHeap()
    {
        HeapEntry tail = heap.back();
        heap.pop_back();
        std::size_t n = heap.size();
        if (n == 0)
            return;
        std::size_t i = 0;
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

    bool
    handlePending(std::uint32_t slot, std::uint64_t seq) const
    {
        if (slot >= poolCapacity())
            return false;
        const Record &rec = recordAt(slot);
        return rec.seq == seq && rec.state == Record::State::pending;
    }

    void
    cancelHandle(std::uint32_t slot, std::uint64_t seq)
    {
        if (!handlePending(slot, seq))
            return; // stale: fired, already cancelled, or slot reused
        if (_taskObserver) [[unlikely]]
            _taskObserver->onEventCancelled(seq);
        Record &rec = recordAt(slot);
        destroyAction(rec);
        releaseSlot(slot);
        --_livePending;
        // The heap entry stays behind (lazy deletion); it is skipped on
        // pop because the record's generation no longer matches.
        ++_deadInHeap;
        compactIfWorthwhile();
    }

    void growPool();
    void compactIfWorthwhile();

    /** Pop cancelled entries until the top (if any) is live. */
    void dropDeadTop();

    /** The arbitrated slow path of step(): collect the eligible set at
     *  the minimum tick and fire the arbiter's choice. */
    bool stepChoice();

    /** Remove the entry at heap index @p i, restoring the heap
     *  property (replace with the tail, sift either direction). */
    void eraseHeapAt(std::size_t i);

    std::vector<std::unique_ptr<Record[]>> chunks;
    std::uint32_t freeHead = noSlot;
    std::vector<HeapEntry> heap;

    Tick _now = 0;
    ScheduleArbiter *_arbiter = nullptr;
    TaskObserver *_taskObserver = nullptr;
    std::uint64_t _perturbSalt = perturb::salt();
    std::uint64_t nextSeq = 0;
    std::uint64_t _firedCount = 0;
    std::size_t _livePending = 0;
    std::size_t _deadInHeap = 0;
    std::uint64_t _heapCallableAllocs = 0;
    std::uint64_t _compactions = 0;
    /** Latest tick a delay may advance to in place; -1 (never) outside
     *  run()/runUntil(). */
    Tick _inPlaceLimit = -1;
    std::uint64_t _inPlaceAdvances = 0;
};

inline bool
EventHandle::pending() const
{
    return queue && queue->handlePending(slot, seq);
}

inline void
EventHandle::cancel()
{
    if (queue)
        queue->cancelHandle(slot, seq);
}

/**
 * A reusable one-shot event owned by a model object.
 *
 * The callback is fixed at construction (one std::function set up once,
 * never per schedule); each scheduleAt()/scheduleIn() arms a fresh pooled
 * event that captures only a pointer to this object, so rescheduling on
 * a hot path is allocation-free. Re-arming while pending moves the event
 * (the old occurrence is cancelled). Not movable: the armed event points
 * back at this object.
 */
class MemberEvent
{
  public:
    /** @param order applied to every arming (see sim/perturb.hh). */
    template <typename F>
    MemberEvent(EventQueue &queue, F fn,
                Order order = Order::permutable)
        : queue(queue), fn(std::move(fn)), order(order)
    {}

    ~MemberEvent() { cancel(); }

    MemberEvent(const MemberEvent &) = delete;
    MemberEvent &operator=(const MemberEvent &) = delete;

    /** Arm (or move) the event to fire at absolute time @p when. */
    void
    scheduleAt(Tick when)
    {
        handle.cancel();
        handle = queue.schedule(when, Trampoline{this}, order);
    }

    /** Arm (or move) the event to fire @p delay ticks from now. */
    void scheduleIn(Tick delay) { scheduleAt(queue.now() + delay); }

    /** Disarm if pending. */
    void cancel() { handle.cancel(); }

    /** True while armed and unfired. */
    bool pending() const { return handle.pending(); }

  private:
    struct Trampoline
    {
        MemberEvent *event;
        void operator()() const { event->fn(); }
    };

    EventQueue &queue;
    std::function<void()> fn;
    Order order;
    EventHandle handle;
};

} // namespace unet::sim

#endif // UNET_SIM_EVENT_HH
