#include <gtest/gtest.h>

#include <memory>

#include "unet/queues.hh"
#include "unet/types.hh"

using namespace unet;

TEST(Ring, FifoOrder)
{
    Ring<int> r(4);
    EXPECT_TRUE(r.empty());
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(r.push(i));
    EXPECT_TRUE(r.full());
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(*r.pop(), i);
    EXPECT_TRUE(r.empty());
    EXPECT_FALSE(r.pop().has_value());
}

TEST(Ring, RejectsWhenFull)
{
    Ring<int> r(2);
    EXPECT_TRUE(r.push(1));
    EXPECT_TRUE(r.push(2));
    EXPECT_FALSE(r.push(3));
    EXPECT_EQ(r.size(), 2u);
    EXPECT_EQ(*r.pop(), 1);
}

TEST(Ring, WrapsAround)
{
    Ring<int> r(3);
    for (int round = 0; round < 10; ++round) {
        EXPECT_TRUE(r.push(round));
        EXPECT_EQ(*r.pop(), round);
    }
    EXPECT_TRUE(r.empty());
}

TEST(Ring, FrontPeeksWithoutPopping)
{
    Ring<int> r(2);
    r.push(7);
    EXPECT_EQ(r.front(), 7);
    EXPECT_EQ(r.size(), 1u);
}

TEST(Ring, InterleavedProducerConsumer)
{
    Ring<int> r(5);
    int produced = 0, consumed = 0;
    for (int step = 0; step < 100; ++step) {
        if (step % 3 != 2) {
            if (r.push(produced))
                ++produced;
        } else {
            if (auto v = r.pop()) {
                EXPECT_EQ(*v, consumed);
                ++consumed;
            }
        }
    }
    while (auto v = r.pop()) {
        EXPECT_EQ(*v, consumed);
        ++consumed;
    }
    EXPECT_EQ(produced, consumed);
}

TEST(Ring, WrapAroundCrossesModuloBoundaryManyTimes)
{
    // Fill ratio 3/4 forces head and tail to cross the modulo
    // boundary at different phases; FIFO order must hold throughout.
    Ring<int> r(4);
    int produced = 0, consumed = 0;
    for (int round = 0; round < 25; ++round) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(r.push(produced++));
        EXPECT_EQ(r.size(), 3u);
        for (int i = 0; i < 3; ++i) {
            auto v = r.pop();
            ASSERT_TRUE(v.has_value());
            EXPECT_EQ(*v, consumed++);
        }
    }
    EXPECT_TRUE(r.empty());
    EXPECT_EQ(produced, consumed);
}

TEST(Ring, PopScrubsTheVacatedSlot)
{
    // A popped slot must not keep a stale copy alive: the shared_ptr's
    // use count exposes whether the ring still references it.
    Ring<std::shared_ptr<int>> r(2);
    auto p = std::make_shared<int>(7);
    r.push(p);
    EXPECT_EQ(p.use_count(), 2);
    {
        auto popped = r.pop();
        ASSERT_TRUE(popped.has_value());
        // Only the original and the popped copy remain — the slot
        // was scrubbed, not left holding a third reference.
        EXPECT_EQ(p.use_count(), 2);
    }
    EXPECT_EQ(p.use_count(), 1);
}

TEST(SendDescriptor, TotalLength)
{
    SendDescriptor d;
    d.isInline = true;
    d.inlineLength = 40;
    EXPECT_EQ(d.totalLength(), 40u);

    d.isInline = false;
    d.fragmentCount = 2;
    d.fragments[0] = {0, 100};
    d.fragments[1] = {200, 50};
    EXPECT_EQ(d.totalLength(), 150u);
}
