/**
 * @file
 * Schedule-perturbation mode: the determinism auditor's race detector.
 *
 * Two halves to pin down:
 *  - detection power: a deliberately order-dependent same-tick event
 *    pair produces *different* results under perturbation salts — the
 *    auditor catches the dependence instead of silently reproducing
 *    insertion order;
 *  - annotation contract: events marked Order::dependent keep exact
 *    scheduling order under every salt, and a salt of zero is exact
 *    FIFO for everything.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/perturb.hh"
#include "sim/pool.hh"

using namespace unet::sim;

namespace {

/** Fire @p n same-tick events appending their index; return the order. */
std::string
sameTickOrder(std::uint64_t salt, int n, Order order = Order::permutable)
{
    EventQueue q;
    q.setPerturbSalt(salt);
    std::string fired;
    for (int i = 0; i < n; ++i)
        q.schedule(100, [&fired, i] {
            fired.push_back(static_cast<char>('A' + i));
        }, order);
    q.run();
    return fired;
}

} // namespace

TEST(Perturb, SaltZeroIsExactFifo)
{
    EXPECT_EQ(sameTickOrder(0, 8), "ABCDEFGH");
}

TEST(Perturb, OrderDependentToyPairIsCaught)
{
    // The canonical latent race: two same-tick events whose combined
    // effect depends on which fires first. Unperturbed they always run
    // in insertion order and every test passes; the auditor must
    // surface the dependence as a changed schedule under some salt.
    const std::string baseline = sameTickOrder(0, 2);
    ASSERT_EQ(baseline, "AB");
    bool caught = false;
    for (std::uint64_t salt = 1; salt <= 16 && !caught; ++salt)
        caught = sameTickOrder(salt, 2) != baseline;
    EXPECT_TRUE(caught)
        << "no salt in 1..16 permuted a same-tick pair; the "
           "perturbation plumbing is dead";
}

TEST(Perturb, PermutationIsDeterministicPerSalt)
{
    for (std::uint64_t salt : {1ULL, 7ULL, 42ULL, 0xdeadbeefULL}) {
        auto a = sameTickOrder(salt, 12);
        auto b = sameTickOrder(salt, 12);
        EXPECT_EQ(a, b) << "salt " << salt;
    }
}

TEST(Perturb, SaltsActuallyPermuteLargerTicks)
{
    // With 12 same-tick events, at least one of a handful of salts must
    // produce a non-FIFO order (all-FIFO across all salts would mean
    // the key is being ignored).
    int permuted = 0;
    for (std::uint64_t salt : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL})
        permuted += sameTickOrder(salt, 12) != "ABCDEFGHIJKL";
    EXPECT_GE(permuted, 1);
}

TEST(Perturb, OrderDependentEventsKeepFifoUnderEverySalt)
{
    for (std::uint64_t salt : {1ULL, 7ULL, 42ULL, 0xdeadbeefULL})
        EXPECT_EQ(sameTickOrder(salt, 8, Order::dependent), "ABCDEFGH")
            << "salt " << salt;
}

TEST(Perturb, DependentAndPermutableCoexistWithinATick)
{
    // The dependent subset must preserve its internal order under any
    // salt, wherever the permutable events land around it.
    for (std::uint64_t salt : {3ULL, 11ULL, 99ULL}) {
        EventQueue q;
        q.setPerturbSalt(salt);
        std::string fired;
        for (int i = 0; i < 4; ++i)
            q.schedule(10, [&fired, i] {
                fired.push_back(static_cast<char>('0' + i));
            }, Order::dependent);
        for (int i = 0; i < 4; ++i)
            q.schedule(10, [&fired, i] {
                fired.push_back(static_cast<char>('a' + i));
            });
        q.run();
        std::string dependent;
        for (char c : fired)
            if (c >= '0' && c <= '9')
                dependent.push_back(c);
        EXPECT_EQ(dependent, "0123") << "salt " << salt;
        EXPECT_EQ(fired.size(), 8u);
    }
}

TEST(Perturb, TimeOrderIsNeverViolated)
{
    // Perturbation only reorders *within* a tick: across ticks the
    // schedule stays causal.
    EventQueue q;
    q.setPerturbSalt(12345);
    std::vector<Tick> fireTicks;
    for (Tick t : {30, 10, 20, 10, 30, 20, 10})
        q.schedule(t, [&fireTicks, &q] { fireTicks.push_back(q.now()); });
    q.run();
    ASSERT_EQ(fireTicks.size(), 7u);
    for (std::size_t i = 1; i < fireTicks.size(); ++i)
        EXPECT_LE(fireTicks[i - 1], fireTicks[i]);
}

TEST(Perturb, MemberEventHonoursOrderAnnotation)
{
    for (std::uint64_t salt : {5ULL, 17ULL}) {
        EventQueue q;
        q.setPerturbSalt(salt);
        std::string fired;
        MemberEvent first(q, [&fired] { fired.push_back('1'); },
                          Order::dependent);
        MemberEvent second(q, [&fired] { fired.push_back('2'); },
                           Order::dependent);
        first.scheduleAt(50);
        second.scheduleAt(50);
        q.run();
        EXPECT_EQ(fired, "12") << "salt " << salt;
    }
}

TEST(Perturb, CancellationWorksUnderPerturbation)
{
    EventQueue q;
    q.setPerturbSalt(777);
    std::string fired;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 8; ++i)
        handles.push_back(q.schedule(10, [&fired, i] {
            fired.push_back(static_cast<char>('A' + i));
        }));
    handles[2].cancel();
    handles[5].cancel();
    q.run();
    EXPECT_EQ(fired.size(), 6u);
    EXPECT_EQ(fired.find('C'), std::string::npos);
    EXPECT_EQ(fired.find('F'), std::string::npos);
}

TEST(Perturb, SetSaltOnNonIdleQueueDies)
{
    EXPECT_DEATH({
        EventQueue q;
        q.schedule(10, [] {});
        q.setPerturbSalt(1);
    }, "non-idle");
}

TEST(Perturb, ScopedSaltSetsAndRestores)
{
    const std::uint64_t before = perturb::salt();
    {
        perturb::ScopedSalt s(0xabcdef);
        EXPECT_EQ(perturb::salt(), 0xabcdefu);
        // A queue constructed inside the scope latches the salt.
        EventQueue q;
        EXPECT_EQ(q.perturbSalt(), 0xabcdefu);
    }
    EXPECT_EQ(perturb::salt(), before);
}

TEST(Perturb, MixIsDeterministicAndSaltSensitive)
{
    EXPECT_EQ(perturb::mix(1, 42), perturb::mix(1, 42));
    EXPECT_NE(perturb::mix(1, 42), perturb::mix(2, 42));
    EXPECT_NE(perturb::mix(1, 42), perturb::mix(1, 43));
}

TEST(Perturb, MappedBuffersStayUsableUnderSalt)
{
    // Address salting must not change the usable-size contract: every
    // byte of data()..data()+size() is writable, whatever the pad.
    perturb::ScopedSalt s(31337);
    for (int round = 0; round < 4; ++round) {
        MappedBuffer a(4096), b(4096), c(16384);
        a.data()[0] = 1;
        a.data()[a.size() - 1] = 2;
        b.data()[0] = 3;
        b.data()[b.size() - 1] = 4;
        c.data()[0] = 5;
        c.data()[c.size() - 1] = 6;
        EXPECT_EQ(a.size(), 4096u);
        EXPECT_EQ(c.size(), 16384u);
    }
}
