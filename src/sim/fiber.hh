/**
 * @file
 * Cooperative user-level fibers with a register-only stack switch.
 *
 * Fibers let application code in the simulator (ping-pong loops, Split-C
 * benchmarks) be written as blocking straight-line code. Exactly one
 * fiber runs at a time on a single OS thread; the event loop resumes a
 * fiber with run() and the fiber returns control with yield(). There is
 * no preemption and no shared-state race by construction.
 *
 * A switch saves the x86-64 SysV callee-saved registers and the MXCSR
 * and x87 control words on the outgoing stack and swaps stack pointers
 * (fiber.cc). It makes no system call: the signal mask is per thread,
 * not per fiber. The floating-point control words (rounding mode,
 * exception masks) are per fiber, as they were with swapcontext().
 */

#ifndef UNET_SIM_FIBER_HH
#define UNET_SIM_FIBER_HH

#include <cstddef>
#include <exception>
#include <functional>

#include "sim/pool.hh"

namespace unet::sim {

/**
 * A single cooperative fiber.
 *
 * The body runs on its own stack. run() switches into the fiber until it
 * either calls yield() or returns; finished() reports completion.
 * Destroying an unfinished fiber is allowed (its stack is simply freed),
 * but the body will not run further — destructors of locals on the fiber
 * stack do NOT execute, so bodies should not own resources across yields
 * unless the fiber is run to completion.
 */
class Fiber
{
  public:
    /**
     * @param body       Function executed on the fiber.
     * @param stack_size Stack size in bytes (default 256 KiB).
     */
    explicit Fiber(std::function<void()> body,
                   std::size_t stack_size = 256 * 1024);

    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Switch into the fiber until it yields or finishes.
     * Must not be called from inside any fiber (no nesting) and must not
     * be called on a finished fiber.
     *
     * An exception escaping the body cannot unwind across the stack
     * switch; it is captured on the fiber stack and rethrown here, in
     * the caller's context, after the fiber is marked finished.
     */
    void run();

    /**
     * Return control to the caller of run(). Must be called from inside
     * this fiber (i.e. from the currently running fiber).
     */
    static void yield();

    /** True once the body has returned. */
    bool finished() const { return done; }

    /** The fiber currently executing, or nullptr if in the main context. */
    static Fiber *current();

  private:
    static void trampoline();

    /** Verify the stack-overflow canary at the low end of the stack. */
    void checkCanary() const;

    std::function<void()> body;
    /** Stack storage on its own mapping: only the pages the fiber
     *  touches become resident, and destruction unmaps it. Its zero
     *  fill is not relied on — run() writes the first frame before
     *  anything reads the stack. */
    MappedBuffer stack;
    /** Saved stack pointer while suspended; null until the first run. */
    void *sp = nullptr;
    /** Stack pointer of the run() call to return to. */
    void *returnSp = nullptr;
    bool done = false;
    /** Exception that escaped the body, rethrown by run(). */
    std::exception_ptr pendingException;

    /** @name ASan fiber-switch bookkeeping (unused without ASan).
     *
     * ASan shadows each fiber stack with a "fake stack"; every stack
     * switch must be bracketed by __sanitizer_start_switch_fiber /
     * __sanitizer_finish_switch_fiber or ASan attributes the fiber's
     * frames to the caller's stack and every fiber test false-positives.
     * @{ */
    void *asanFakeStack = nullptr;       ///< this fiber's fake stack
    const void *asanCallerStack = nullptr; ///< resuming context's stack
    std::size_t asanCallerSize = 0;
    /** @} */

    /** @name TSan fiber bookkeeping (unused without TSan).
     *
     * TSan likewise cannot follow a raw stack switch: each fiber needs
     * its own TSan context (__tsan_create_fiber) and every switch must
     * be announced with __tsan_switch_to_fiber, or the race detector
     * attributes one fiber's accesses to another's vector clock and
     * floods the run with false reports.
     * @{ */
    void *tsanFiber = nullptr;  ///< this fiber's TSan context
    void *tsanCaller = nullptr; ///< TSan context run() switched from
    /** @} */
};

} // namespace unet::sim

#endif // UNET_SIM_FIBER_HH
