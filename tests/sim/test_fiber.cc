#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/fiber.hh"

using namespace unet::sim;

namespace {

/** The frame pointer of a fresh call: 16-byte aligned exactly when the
 *  caller's stack was, since the call pushes 8 and the prologue 8. */
[[gnu::noinline]] std::uintptr_t
calleeFrame()
{
    return reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
}

/** One step of a per-fiber checksum over four running values. */
inline void
mixStep(std::uint64_t &a, std::uint64_t &b, std::uint64_t &c,
        std::uint64_t &d, int k)
{
    a = a * 6364136223846793005u + 1442695040888963407u;
    b ^= a >> 29;
    c += b * 31 + static_cast<std::uint64_t>(k);
    d = (d << 7 | d >> 57) ^ c;
}

} // namespace

TEST(Fiber, RunsToCompletion)
{
    int x = 0;
    Fiber f([&] { x = 42; });
    EXPECT_FALSE(f.finished());
    f.run();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(x, 42);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> trace;
    Fiber f([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
        Fiber::yield();
        trace.push_back(5);
    });
    f.run();
    trace.push_back(2);
    f.run();
    trace.push_back(4);
    f.run();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, CurrentTracksExecution)
{
    EXPECT_EQ(Fiber::current(), nullptr);
    Fiber *seen = nullptr;
    Fiber f([&] {
        seen = Fiber::current();
        Fiber::yield();
        EXPECT_EQ(Fiber::current(), seen);
    });
    f.run();
    EXPECT_EQ(seen, &f);
    EXPECT_EQ(Fiber::current(), nullptr);
    f.run();
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, InterleavingTwoFibers)
{
    std::vector<int> trace;
    Fiber a([&] {
        trace.push_back(1);
        Fiber::yield();
        trace.push_back(3);
    });
    Fiber b([&] {
        trace.push_back(2);
        Fiber::yield();
        trace.push_back(4);
    });
    a.run();
    b.run();
    a.run();
    b.run();
    EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_TRUE(a.finished());
    EXPECT_TRUE(b.finished());
}

TEST(Fiber, LocalStateSurvivesYield)
{
    long total = 0;
    Fiber f([&] {
        long acc = 0;
        for (int i = 1; i <= 100; ++i) {
            acc += i;
            if (i % 10 == 0)
                Fiber::yield();
        }
        total = acc;
    });
    while (!f.finished())
        f.run();
    EXPECT_EQ(total, 5050);
}

TEST(Fiber, DeepStackUsage)
{
    // Recursion that needs a healthy chunk of the 256 KiB stack.
    std::function<long(int)> fib = [&](int n) -> long {
        volatile char pad[512];
        pad[0] = static_cast<char>(n);
        (void)pad;
        return n < 2 ? n : fib(n - 1) + fib(n - 2);
    };
    long result = 0;
    Fiber f([&] { result = fib(18); });
    f.run();
    EXPECT_EQ(result, 2584);
}

TEST(FiberDeathTest, RunOnFinishedFiberPanics)
{
    Fiber f([] {});
    f.run();
    ASSERT_TRUE(f.finished());
    EXPECT_DEATH(f.run(), "finished fiber");
}

TEST(FiberDeathTest, NestedRunPanics)
{
    Fiber inner([] {});
    Fiber outer([&] { inner.run(); });
    EXPECT_DEATH(outer.run(), "nested Fiber::run");
}

TEST(FiberDeathTest, YieldOutsideAnyFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside any fiber");
}

#if defined(UNET_CHECK) && UNET_CHECK
/** A body that overruns its stack tramples the low end first, and
 *  nothing else notices: there is no guard page. The canary seeded
 *  there fails the switch back to the caller. The overrun is one
 *  clobbered byte at the bottom of the stack, found by scanning down
 *  from this frame for the 64-byte canary run. */
TEST(FiberDeathTest, StackOverrunTripsTheCanary)
{
    Fiber f(
        [] {
            auto *p = static_cast<volatile unsigned char *>(
                __builtin_frame_address(0));
            auto at_canary = [](volatile unsigned char *q) {
                for (int i = 0; i < 64; ++i)
                    if (q[i] != 0xA5)
                        return false;
                return true;
            };
            while (!at_canary(p))
                --p;
            *p = 0;
        },
        16 * 1024);
    EXPECT_DEATH(f.run(), "fiber stack overflow: canary byte 0 of 64");
}
#endif

TEST(Fiber, DestroyUnfinishedFiberIsSafe)
{
    auto *f = new Fiber([] {
        Fiber::yield();
        FAIL() << "body must not resume after destruction";
    });
    f->run();
    delete f; // must not crash or resume the body
    SUCCEED();
}

TEST(Fiber, FloatingPointControlIsPerFiber)
{
    // Rounding mode and exception masks live in the MXCSR and x87
    // control words, which a switch saves per fiber.
    ASSERT_EQ(std::fegetround(), FE_TONEAREST);
    // 1/7 is inexact, and rounds down to nearest in both the SSE
    // double and the x87 extended format.
    volatile double one = 1.0, seven = 7.0;
    volatile long double lone = 1.0L, lseven = 7.0L;
    const double nearest = one / seven;
    const long double lnearest = lone / lseven;

    int at_entry = -1, after_resume = -1;
    double sse_up = 0.0;
    long double x87_up = 0.0L;
    Fiber f([&] {
        at_entry = std::fegetround();
        std::fesetround(FE_UPWARD);
        Fiber::yield();
        after_resume = std::fegetround();
        sse_up = one / seven;
        x87_up = lone / lseven;
    });
    f.run();
    EXPECT_EQ(at_entry, FE_TONEAREST) << "a fiber starts in its "
                                         "resumer's mode";
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
    EXPECT_EQ(one / seven, nearest);
    EXPECT_EQ(lone / lseven, lnearest);
    f.run();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(after_resume, FE_UPWARD);
    EXPECT_GT(sse_up, nearest);
    EXPECT_GT(x87_up, lnearest);
    EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

TEST(Fiber, StackIsAbiAlignedAtEntryAndAfterEveryResume)
{
    std::vector<std::uintptr_t> frames;
    Fiber f([&] {
        frames.push_back(calleeFrame());
        for (int i = 0; i < 3; ++i) {
            Fiber::yield();
            frames.push_back(calleeFrame());
        }
    });
    while (!f.finished())
        f.run();
    ASSERT_EQ(frames.size(), 4u);
    for (std::uintptr_t frame : frames)
        EXPECT_EQ(frame % 16, 0u) << std::hex << frame;
}

TEST(Fiber, ExceptionFromBodyIsRethrownByRun)
{
    Fiber f([] {
        Fiber::yield();
        throw std::runtime_error("thrown on the fiber stack");
    });
    f.run();
    EXPECT_FALSE(f.finished());
    try {
        f.run();
        ADD_FAILURE() << "run() did not rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "thrown on the fiber stack");
    }
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(Fiber::current(), nullptr);
}

TEST(Fiber, StackRecycledFromFiberDestroyedMidYieldRunsCleanly)
{
    // A fiber destroyed while suspended leaves its live frames' ASan
    // redzones poisoned, and the next stack of that size is likely to
    // be mapped at the same address; the next fiber, which writes its
    // first frame over them, must not trip over them.
    constexpr std::size_t stack_bytes = 64 * 1024;
    auto parked = std::make_unique<Fiber>(
        [] {
            volatile char scratch[1024];
            scratch[0] = 1;
            Fiber::yield();
            scratch[1] = scratch[0];
        },
        stack_bytes);
    parked->run();
    parked.reset();

    long sum = 0;
    Fiber next(
        [&] {
            volatile char buf[4096];
            for (std::size_t i = 0; i < sizeof buf; ++i)
                buf[i] = static_cast<char>(i % 100);
            for (std::size_t i = 0; i < sizeof buf; ++i)
                sum += buf[i];
        },
        stack_bytes);
    next.run();
    EXPECT_TRUE(next.finished());
    EXPECT_EQ(sum, 40 * 4950 + 95 * 96 / 2);
}

TEST(Fiber, ManyFibersRoundRobinKeepTheirLocals)
{
    constexpr int fibers = 64;
    constexpr int yields = 10000;
    std::vector<std::uint64_t> sums(fibers);
    std::vector<std::unique_ptr<Fiber>> pool;
    for (int i = 0; i < fibers; ++i) {
        pool.push_back(std::make_unique<Fiber>([&sums, i] {
            // Four values live across every yield: some end up in
            // callee-saved registers, the rest in the fiber's frame.
            std::uint64_t a = static_cast<std::uint64_t>(i), b = ~a,
                          c = a * 3, d = 1;
            for (int k = 0; k < yields; ++k) {
                mixStep(a, b, c, d, k);
                Fiber::yield();
            }
            sums[i] = a ^ b ^ c ^ d;
        }));
    }
    for (int round = 0; round <= yields; ++round)
        for (auto &f : pool)
            f->run();

    for (int i = 0; i < fibers; ++i) {
        std::uint64_t a = static_cast<std::uint64_t>(i), b = ~a, c = a * 3,
                      d = 1;
        for (int k = 0; k < yields; ++k)
            mixStep(a, b, c, d, k);
        EXPECT_TRUE(pool[i]->finished()) << "fiber " << i;
        EXPECT_EQ(sums[i], a ^ b ^ c ^ d) << "fiber " << i;
    }
}
