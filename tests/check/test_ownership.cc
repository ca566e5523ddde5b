/**
 * @file
 * Unit and death tests for the buffer-ownership state machine, plus an
 * end-to-end proof that a double-posted send buffer is caught at the
 * U-Net API boundary.
 */

#include <gtest/gtest.h>

#include "check/ownership.hh"
#include "tests/unet/fixtures.hh"

using namespace unet;
using namespace unet::check;
using namespace unet::test;
using namespace unet::sim::literals;

TEST(BufStateName, AllStatesNamed)
{
    EXPECT_STREQ(name(BufState::TxPosted), "posted-to-send");
    EXPECT_STREQ(name(BufState::TxAgent), "agent-owned (tx gather)");
    EXPECT_STREQ(name(BufState::RxPosted), "rx-posted (free queue)");
    EXPECT_STREQ(name(BufState::RxAgent), "agent-owned (rx fill)");
    EXPECT_STREQ(name(BufState::Delivered), "delivered");
}

#if defined(UNET_CHECK) && UNET_CHECK

TEST(Ownership, SendLifecycle)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_EQ(t.tracked(), 1u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 512u);

    t.claimSend({0, 512});
    EXPECT_EQ(t.bytesIn(BufState::TxAgent), 512u);

    t.releaseSend({0, 512});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, ReceiveLifecycle)
{
    OwnershipTracker t(4096);
    t.postFree({1024, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 2048u);

    t.claimRecv({1024, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxAgent), 2048u);

    // The message fills only part of the buffer; the descriptor and
    // the writes reference the truncated range.
    t.rxWrite({1024, 300});
    t.deliver({1024, 300});
    EXPECT_EQ(t.bytesIn(BufState::Delivered), 2048u);

    // Consuming the descriptor returns the whole region to the app.
    t.consume({1024, 300});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, DropPathReturnsBufferToFreeQueue)
{
    OwnershipTracker t(4096);
    t.postFree({0, 2048});
    t.claimRecv({0, 2048});
    t.unclaimRecv({0, 2048});
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 2048u);

    // Re-claim, then lose it to a full free queue: the region leaves
    // the tracker entirely.
    t.claimRecv({0, 2048});
    t.releaseRecv({0, 2048});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, AgentOpsAreLenientAboutUntrackedRegions)
{
    // Boot-time code and test harnesses push rings directly without
    // the tracked API; the agent-side hooks must tolerate that.
    OwnershipTracker t(4096);
    t.claimSend({0, 64});
    t.releaseSend({0, 64});
    t.claimRecv({128, 64});
    t.unclaimRecv({128, 64});
    t.rxWrite({256, 64});
    t.deliver({256, 64});
    t.consume({256, 64});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, ZeroLengthPostsAreIgnored)
{
    OwnershipTracker t(4096);
    t.postSend({0, 0});
    t.postFree({64, 0});
    EXPECT_EQ(t.tracked(), 0u);
}

TEST(Ownership, DisjointRegionsTrackIndependently)
{
    OwnershipTracker t(8192);
    t.postSend({0, 1024});
    t.postFree({1024, 1024});
    t.postSend({4096, 512});
    EXPECT_EQ(t.tracked(), 3u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 1536u);
    EXPECT_EQ(t.bytesIn(BufState::RxPosted), 1024u);

    // Adjacent (touching, non-overlapping) regions are legal.
    t.releaseSend({0, 1024});
    t.postSend({0, 1024});
    EXPECT_EQ(t.tracked(), 3u);
}

TEST(OwnershipDeathTest, DoublePostSendPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_DEATH(t.postSend({0, 512}), "overlaps region");
}

TEST(OwnershipDeathTest, OverlappingPostPanics)
{
    OwnershipTracker t(4096);
    t.postSend({256, 512});
    // Overlap from below, from above, and containment all panic.
    EXPECT_DEATH(t.postSend({0, 300}), "overlaps region");
    EXPECT_DEATH(t.postFree({700, 512}), "overlaps region");
    EXPECT_DEATH(t.postFree({300, 64}), "overlaps region");
}

TEST(OwnershipDeathTest, FreeWhilePostedToSendPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    EXPECT_DEATH(t.postFree({0, 512}), "posted-to-send");
}

TEST(OwnershipDeathTest, OutOfBoundsDescriptorPanics)
{
    OwnershipTracker t(4096);
    EXPECT_DEATH(t.postSend({4000, 200}), "outside the");
    EXPECT_DEATH(t.postFree({0, 8192}), "outside the");
}

TEST(OwnershipDeathTest, WrongStateTransitionsPanic)
{
    OwnershipTracker t(4096);
    t.postFree({0, 1024});
    // A free-queue buffer gathered as send payload is corruption.
    EXPECT_DEATH(t.claimSend({0, 1024}), "rx-posted");
    // Delivering a buffer the agent never claimed is corruption.
    EXPECT_DEATH(t.deliver({0, 1024}), "rx-posted");

    t.claimRecv({0, 1024});
    t.deliver({0, 1024});
    // Receive data landing in an already-delivered buffer would
    // corrupt a message the application may be reading.
    EXPECT_DEATH(t.rxWrite({0, 100}), "delivered");
}

TEST(OwnershipDeathTest, ConsumeUndeliveredPanics)
{
    OwnershipTracker t(4096);
    t.postFree({0, 1024});
    EXPECT_DEATH(t.consume({0, 1024}), "expected delivered");
}

TEST(OwnershipDeathTest, ReferenceLargerThanRegionPanics)
{
    OwnershipTracker t(4096);
    t.postSend({0, 256});
    EXPECT_DEATH(t.claimSend({0, 512}), "exceeds the");
}

namespace {

/** Drive a U-Net/FE pair where the sender double-posts one buffer. */
void
doublePostScenario()
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;

    sim::Process rx(s, "rx", [](sim::Process &) {});
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        // Post the same 512-byte buffer twice back-to-back. The first
        // descriptor is still in flight (send queue or device ring)
        // when the second post lands: a zero-copy violation — the
        // second message could transmit bytes the first is reading.
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 512}));
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 512}));
    });

    ep_a = &a.unet.createEndpoint(&tx, {});
    ep_b = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *ep_a, b.unet, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();
}

} // namespace

TEST(OwnershipDeathTest, EndToEndDoublePostedSendBufferIsCaught)
{
    EXPECT_DEATH(doublePostScenario(), "postSend.*overlaps region");
}

TEST(Ownership, EndpointTracksPostedFreeBuffers)
{
    sim::Simulation s;
    eth::FullDuplexLink link(s);
    FeNode a(s, link, 0), b(s, link, 1);

    Endpoint *ep_a = nullptr, *ep_b = nullptr;
    ChannelId chan_a = invalidChannel, chan_b = invalidChannel;
    bool received = false;
    RecvDescriptor got;

    sim::Process rx(s, "rx", [&](sim::Process &self) {
        b.unet.postFree(self, *ep_b, {0, 2048});
        EXPECT_EQ(ep_b->ownership().bytesIn(BufState::RxPosted), 2048u);
        received = ep_b->wait(self, got, 10_ms);
    });
    sim::Process tx(s, "tx", [&](sim::Process &self) {
        auto data = pattern(400);
        ep_a->buffers().write({0, 400}, data);
        a.unet.send(self, *ep_a, fragmentSend(chan_a, {0, 400}));
    });

    ep_a = &a.unet.createEndpoint(&tx, {});
    ep_b = &b.unet.createEndpoint(&rx, {});
    UNetFe::connect(a.unet, *ep_a, b.unet, *ep_b, chan_a, chan_b);

    rx.start();
    tx.start(1_us);
    s.run();

    ASSERT_TRUE(received);
    ASSERT_FALSE(got.isSmall);
    // poll()/wait() consumed the receive descriptor: the buffer is
    // back in application hands and untracked.
    EXPECT_EQ(ep_b->ownership().tracked(), 0u);
}

#else // !UNET_CHECK

TEST(Ownership, NoOpTrackerCompilesAndTracksNothing)
{
    OwnershipTracker t(4096);
    t.postSend({0, 512});
    t.postFree({1024, 512});
    EXPECT_EQ(t.tracked(), 0u);
    EXPECT_EQ(t.bytesIn(BufState::TxPosted), 0u);
}

#endif // UNET_CHECK
