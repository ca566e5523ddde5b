#include "sim/process.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/perturb.hh"

namespace unet::sim {

namespace {

thread_local Process *currentProcess = nullptr;

} // namespace

void
WaitChannel::notifyAll()
{
    // Swap out the waiter list first: a woken process may immediately
    // block on this channel again and must not be woken twice.
    std::vector<Process *> woken;
    woken.swap(waiters);
    for (Process *p : woken) {
        p->wokenByNotify = true;
        p->timeoutEvent.cancel();
        // Order::dependent: "each resumes ... in the order it blocked"
        // is this class's documented fairness contract, so the wakeup
        // events are exempt from schedule perturbation.
        p->simulation().scheduleIn(0, [p] { p->resume(); },
                                   Order::dependent);
    }
    // The wakes are scheduled, not run, so nothing blocked here during
    // the loop: hand the storage back for the next waitOn().
    woken.clear();
    woken.swap(waiters);
}

Process::Process(Simulation &sim, std::string name,
                 std::function<void(Process &)> body,
                 std::size_t stack_size)
    : sim(sim), _name(std::move(name)), _id(sim.nextProcessId()),
      body(std::move(body)), stackSize(stack_size)
{
    if (!this->body)
        UNET_PANIC("process '", _name, "' constructed with empty body");
}

Process::~Process() = default;

Process *
Process::current()
{
    return currentProcess;
}

void
Process::start(Tick delay)
{
    if (started)
        UNET_PANIC("process '", _name, "' started twice");
    started = true;
    fiber = std::make_unique<Fiber>([this] { body(*this); }, stackSize);
    sim.scheduleIn(delay, [this] { resume(); });
}

void
Process::resume()
{
    if (fiber->finished())
        UNET_PANIC("resuming finished process '", _name, "'");
    noteProgress();
    TaskObserver *observer = sim.events().taskObserver();
    if (observer) [[unlikely]]
        observer->onFiberResume(*this);
    Process *prev = currentProcess;
    currentProcess = this;
    try {
        fiber->run();
    } catch (...) {
        // A captured panic from the fiber body (see Fiber::run) keeps
        // propagating toward the explorer's run loop; restore the
        // current-process slot on the way through.
        currentProcess = prev;
        if (observer) [[unlikely]]
            observer->onFiberSuspend(*this);
        throw;
    }
    currentProcess = prev;
    if (observer) [[unlikely]]
        observer->onFiberSuspend(*this);
}

void
Process::noteProgress()
{
    // Pure-history progress token: (id, nth-resume), mixed so distinct
    // processes and distinct resume counts land far apart.
    sim.noteFiberProgress(perturb::mix(_id, ++_resumeCount));
}

Process::SuspendToken::SuspendToken(Process &p, SuspendKind kind)
    : p(p), token(perturb::mix(p._id, kind))
{
    p.sim.noteSuspendPoint(token);
}

Process::SuspendToken::~SuspendToken()
{
    p.sim.clearSuspendPoint(token);
}

void
Process::suspend()
{
    Fiber::yield();
}

void
Process::delay(Tick d)
{
    if (currentProcess != this)
        UNET_PANIC("delay() called from outside process '", _name, "'");
    if (d < 0)
        UNET_PANIC("negative delay in process '", _name, "'");
    // The wake would fire next: take its clock, sequence number and
    // fired count, and the progress its resume() would note, in place.
    if (sim.events().advanceInPlace(d)) {
        noteProgress();
        return;
    }
    sim.scheduleIn(d, [this] { resume(); });
    SuspendToken tok(*this, suspendDelay);
    suspend();
}

void
Process::waitOn(WaitChannel &ch)
{
    if (currentProcess != this)
        UNET_PANIC("waitOn() called from outside process '", _name, "'");
    wokenByNotify = false;
    ch.waiters.push_back(this);
    SuspendToken tok(*this, suspendWait);
    suspend();
}

bool
Process::waitOn(WaitChannel &ch, Tick timeout)
{
    if (currentProcess != this)
        UNET_PANIC("waitOn() called from outside process '", _name, "'");
    wokenByNotify = false;
    ch.waiters.push_back(this);
    timeoutEvent = sim.scheduleIn(timeout, [this, &ch] {
        // Timed out: remove ourselves from the waiter list and resume.
        auto &w = ch.waiters;
        w.erase(std::remove(w.begin(), w.end(), this), w.end());
        resume();
    });
    {
        SuspendToken tok(*this, suspendWaitTimeout);
        suspend();
    }
    timeoutEvent.cancel();
    return wokenByNotify;
}

void
Process::yieldNow()
{
    delay(0);
}

} // namespace unet::sim
