#include "sim/fiber.hh"

#include <algorithm>
#include <cstdint>
#include <new>
#include <utility>

#include "sim/logging.hh"

/*
 * ASan cannot follow a raw stack switch: it tracks a "fake stack" per
 * execution context, and an unannotated switch leaves it pointed at the
 * old stack — poisoning every subsequent fiber frame. The
 * __sanitizer_{start,finish}_switch_fiber pair, called around each
 * switch, keeps the shadow state consistent. The calls compile away
 * entirely in non-ASan builds.
 */
#if defined(__SANITIZE_ADDRESS__)
#define UNET_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define UNET_ASAN_FIBERS 1
#endif
#endif

#ifdef UNET_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#endif

/*
 * TSan has the same blindness with its own cure: every fiber gets a
 * TSan context, and __tsan_switch_to_fiber is called immediately
 * before each switch. Without it TSan attributes one fiber's accesses
 * to another's vector clock and every cross-fiber hand-off looks like
 * a race.
 */
#if defined(__SANITIZE_THREAD__)
#define UNET_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define UNET_TSAN_FIBERS 1
#endif
#endif

#ifdef UNET_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

#if !(defined(__x86_64__) && defined(__ELF__))
#error "sim::Fiber switches stacks with x86-64 SysV (ELF) assembly only"
#endif

/*
 * The stack switch: save what the SysV ABI says a call preserves, swap
 * stack pointers, restore. unetFiberSwitch(from, to) pushes the six
 * callee-saved registers and the MXCSR and x87 control words on the
 * current stack, stores the stack pointer through `from`, loads `to`
 * and pops the same frame off the other stack, returning there. Every
 * other register is caller-saved, so the compiler already assumes the
 * call clobbers it. Unlike swapcontext() the signal mask is left alone,
 * so a switch makes no system call.
 *
 * A suspended stack therefore holds, from its saved pointer up:
 *   +0   MXCSR (4 bytes), x87 control word (2 bytes), 2 bytes unused
 *   +8   r15, r14, r13, r12, rbx, rbp
 *   +56  return address
 * Fiber::run() lays the same frame on a fresh stack (see FirstFrame).
 */
extern "C" [[gnu::visibility("hidden")]] void
unetFiberSwitch(void **from, void *to);

asm(R"(
    .pushsection .text
    .globl unetFiberSwitch
    .hidden unetFiberSwitch
    .type unetFiberSwitch, @function
    .p2align 4
unetFiberSwitch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size unetFiberSwitch, .-unetFiberSwitch
    .popsection
)");

namespace unet::sim {

namespace {

thread_local Fiber *currentFiber = nullptr;

#if defined(UNET_CHECK) && UNET_CHECK
/** Byte pattern seeded at the overflow end of every fiber stack. */
constexpr unsigned char canaryByte = 0xA5;
constexpr std::size_t canaryBytes = 64;
#endif

/** The frame unetFiberSwitch pops to enter a fiber for the first time. */
struct FirstFrame
{
    std::uint32_t mxcsr;
    std::uint16_t fpuControl;
    std::uint16_t unused;
    std::uint64_t calleeSaved[6]; ///< r15 .. rbp, all zero
    void (*entry)();              ///< popped by the switch's ret
    /** The entry function's own return address. Null ends every
     *  backtrace here, and the slot leaves the stack aligned as after a
     *  call: 8 below a 16-byte boundary. */
    void *entryReturn;
};
static_assert(sizeof(FirstFrame) == 72);

inline void
asanStartSwitch([[maybe_unused]] void **fake_stack_save,
                [[maybe_unused]] const void *bottom,
                [[maybe_unused]] std::size_t size)
{
#ifdef UNET_ASAN_FIBERS
    __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#endif
}

inline void
asanFinishSwitch([[maybe_unused]] void *fake_stack_save,
                 [[maybe_unused]] const void **bottom_old,
                 [[maybe_unused]] std::size_t *size_old)
{
#ifdef UNET_ASAN_FIBERS
    __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old,
                                    size_old);
#endif
}

inline void *
tsanCreateFiber()
{
#ifdef UNET_TSAN_FIBERS
    return __tsan_create_fiber(0);
#else
    return nullptr;
#endif
}

inline void
tsanDestroyFiber([[maybe_unused]] void *fiber)
{
#ifdef UNET_TSAN_FIBERS
    if (fiber)
        __tsan_destroy_fiber(fiber);
#endif
}

inline void *
tsanCurrentFiber()
{
#ifdef UNET_TSAN_FIBERS
    return __tsan_get_current_fiber();
#else
    return nullptr;
#endif
}

inline void
tsanSwitchTo([[maybe_unused]] void *fiber)
{
#ifdef UNET_TSAN_FIBERS
    __tsan_switch_to_fiber(fiber, 0);
#endif
}

} // namespace

Fiber::Fiber(std::function<void()> body, std::size_t stack_size)
    : body(std::move(body)), stack(stack_size)
{
    if (!this->body)
        UNET_PANIC("fiber constructed with empty body");
    if (stack.size() < sizeof(FirstFrame) + 16)
        UNET_PANIC("fiber stack of ", stack.size(),
                   " bytes cannot hold its first frame");
    tsanFiber = tsanCreateFiber();
#if defined(UNET_CHECK) && UNET_CHECK
    // The stack grows down from stack.data() + size; an overflow tramples
    // the low end first. Seed it so checkCanary() can tell.
    std::fill_n(stack.data(),
                std::min(canaryBytes, stack.size() / 4), canaryByte);
#endif
}

Fiber::~Fiber() { tsanDestroyFiber(tsanFiber); }

Fiber *
Fiber::current()
{
    return currentFiber;
}

void
Fiber::checkCanary() const
{
#if defined(UNET_CHECK) && UNET_CHECK
    std::size_t n = std::min(canaryBytes, stack.size() / 4);
    for (std::size_t i = 0; i < n; ++i) {
        if (stack.data()[i] != canaryByte)
            UNET_PANIC("fiber stack overflow: canary byte ", i, " of ",
                       n, " clobbered (stack size ", stack.size(),
                       " bytes)");
    }
#endif
}

void
Fiber::trampoline()
{
    Fiber *self = currentFiber;
    // Complete the switch that entered this fiber; remember the caller's
    // stack so yield()/death can annotate the switch back.
    asanFinishSwitch(nullptr, &self->asanCallerStack,
                     &self->asanCallerSize);
    // An exception must not unwind off the top of the fiber stack:
    // capture it here and let run() rethrow it in the caller's context.
    try {
        self->body();
    } catch (...) {
        self->pendingException = std::current_exception();
    }
    self->done = true;
    // Return to whoever ran us, for good: run() refuses a finished
    // fiber, so this frame is never resumed. A null fake-stack pointer
    // tells ASan this fiber is dying so its fake stack can be freed.
    currentFiber = nullptr;
    asanStartSwitch(nullptr, self->asanCallerStack,
                    self->asanCallerSize);
    tsanSwitchTo(self->tsanCaller);
    unetFiberSwitch(&self->sp, self->returnSp);
    __builtin_unreachable();
}

void
Fiber::run()
{
    if (done)
        UNET_PANIC("run() on a finished fiber");
    if (currentFiber)
        UNET_PANIC("nested Fiber::run() is not supported");

    if (!sp) {
        // First run: lay the frame the switch pops at the 16-byte aligned
        // top of the stack, so its ret enters trampoline() with the
        // caller's floating-point control words and an ABI-aligned
        // stack.
        auto top = reinterpret_cast<std::uintptr_t>(stack.data() +
                                                    stack.size()) &
            ~std::uintptr_t{15};
        auto *first = new (reinterpret_cast<void *>(
            top - sizeof(FirstFrame))) FirstFrame{};
        asm volatile("stmxcsr %0" : "=m"(first->mxcsr));
        asm volatile("fnstcw %0" : "=m"(first->fpuControl));
        first->entry = &trampoline;
        sp = first;
    }

    currentFiber = this;
    void *main_fake = nullptr;
    asanStartSwitch(&main_fake, stack.data(), stack.size());
    tsanCaller = tsanCurrentFiber();
    tsanSwitchTo(tsanFiber);
    unetFiberSwitch(&returnSp, sp);
    asanFinishSwitch(main_fake, nullptr, nullptr);
    currentFiber = nullptr;
    checkCanary();
    if (pendingException)
        std::rethrow_exception(std::exchange(pendingException, nullptr));
}

void
Fiber::yield()
{
    Fiber *self = currentFiber;
    if (!self)
        UNET_PANIC("Fiber::yield() outside any fiber");
    currentFiber = nullptr;
    asanStartSwitch(&self->asanFakeStack, self->asanCallerStack,
                    self->asanCallerSize);
    tsanSwitchTo(self->tsanCaller);
    unetFiberSwitch(&self->sp, self->returnSp);
    asanFinishSwitch(self->asanFakeStack, &self->asanCallerStack,
                     &self->asanCallerSize);
    currentFiber = self;
}

} // namespace unet::sim
