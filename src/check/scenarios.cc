/**
 * @file
 * The scenario registry (check/scenario.hh): every closed rig the
 * model checker enumerates and the happens-before auditor audits, each
 * built once here.
 *
 *   fig5        two-node FE ping-pong (the Figure 5 rig), two rounds
 *               with distinct lengths for the in-order oracle
 *   retransmit  burst loss on the A->B link inside an AM window;
 *               exactly-once delivery through Go-Back-N recovery
 *   demux       three same-tick senders into three endpoints on one
 *               receiving node: the receive-demux race
 *   seeded-credit-bug
 *               six permutable same-tick events with a planted credit
 *               double-return on exactly one of the 720 orderings —
 *               the regression that salts miss and exploration finds
 *   sendv-race  three fibers on one ATM host post overlapping sendv
 *               descriptor trains while the i960 firmware's tx polls
 *               race the doorbells; exactly-once, in-order oracles
 *   atm-cmdqueue
 *               two fibers on one ATM host post scalar sends, one
 *               doorbell command each, while the i960's per-endpoint
 *               tx polls race the command queue; exactly-once,
 *               in-order oracles
 *   upcall      two sender nodes race into one receiving endpoint in
 *               the upcall (signal-handler) receive model; per-lane
 *               exactly-once, in-order oracles over the activation
 *               batching
 *   ep-evict    three senders fire into a node whose endpoint hot set
 *               holds 2 of 3 endpoints while a local fiber sends from
 *               the paged-out one: receive demux races LRU eviction,
 *               the send races its own page-in; exactly-once,
 *               capacity, and pin-safety oracles
 *   serve       a small RPC serving cluster (clients -> switch ->
 *               server) from the serving plane
 *   planted-ww  two fibers on different shard domains write one
 *               ResidencyCache with no ordering edge between them
 *   planted-rw  fig5 plus a foreign-shard fiber that peeks node0's
 *               send ring (read/write)
 *
 * The planted entries carry cross-shard races that prove the auditor
 * fires; their delivery oracles still hold on every schedule.
 */

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "am/active_messages.hh"
#include "atm/link.hh"
#include "check/scenario.hh"
#include "eth/hub.hh"
#include "eth/link.hh"
#include "eth/switch.hh"
#include "fault/attach.hh"
#include "fault/fault.hh"
#include "serve/rig.hh"
#include "sim/logging.hh"
#include "topo/topo.hh"
#include "unet/vep/vep.hh"

namespace unet::check {

namespace {

using topo::FeNode;

/** Endpoint with @p depth-deep send, receive and free queues and a
 *  @p area-byte buffer area. */
EndpointConfig
smallEndpoint(std::size_t area, std::size_t depth = 8)
{
    EndpointConfig cfg;
    cfg.sendQueueDepth = depth;
    cfg.recvQueueDepth = depth;
    cfg.freeQueueDepth = depth;
    cfg.bufferAreaBytes = area;
    return cfg;
}

/** Mix an endpoint's externally visible queue state. */
void
mixEndpoint(obs::Digest &d, const Endpoint &ep)
{
    d.mix(static_cast<std::uint64_t>(ep.sendQueue().size()));
    auto &mut = const_cast<Endpoint &>(ep);
    d.mix(static_cast<std::uint64_t>(mut.recvQueue().size()));
    d.mix(static_cast<std::uint64_t>(mut.freeQueue().size()));
}

// ---------------------------------------------------------------- fig5

/** Two-node ping-pong over a hub, as the Figure 5 latency rig. */
class Fig5 : public Scenario
{
  public:
    static constexpr int rounds = 2;

    static std::uint32_t
    length(int round)
    {
        // Distinct per-round lengths make reordering observable; both
        // are under smallMessageMax, so receives are descriptor-inline
        // and the rig needs no free-queue traffic.
        return 40 + 8 * static_cast<std::uint32_t>(round);
    }

    Fig5()
        : hub(s), a(s, hub, 0), b(s, hub, 1),
          ping(s, "ping", [this](sim::Process &p) { pingBody(p); }),
          echo(s, "echo", [this](sim::Process &p) { echoBody(p); })
    {
        epA = &a.unet.createEndpoint(&ping, smallEndpoint(32 * 1024));
        epB = &b.unet.createEndpoint(&echo, smallEndpoint(32 * 1024));
        UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);
        ping.bindShardDomain(a.host.name());
        echo.bindShardDomain(b.host.name());
        echo.start();
        ping.start(sim::microseconds(5));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        if (epA->rxQueueDrops() || epB->rxQueueDrops())
            UNET_PANIC("fig5: receive-queue drop in a lossless rig");
    }

    void
    checkEnd() override
    {
        if (!ping.finished() || !echo.finished())
            UNET_PANIC("fig5: deadlock (ping finished=",
                       ping.finished() ? 1 : 0, ", echo finished=",
                       echo.finished() ? 1 : 0, ")");
        if (echoSeen.size() != rounds || pingSeen.size() != rounds)
            UNET_PANIC("fig5: exactly-once violated: echo saw ",
                       echoSeen.size(), ", ping saw ", pingSeen.size(),
                       " of ", rounds, " messages");
        for (int r = 0; r < rounds; ++r) {
            if (echoSeen[static_cast<std::size_t>(r)] != length(r))
                UNET_PANIC("fig5: in-order violated at echo round ", r,
                           ": got length ",
                           echoSeen[static_cast<std::size_t>(r)],
                           ", expected ", length(r));
            if (pingSeen[static_cast<std::size_t>(r)] != length(r))
                UNET_PANIC("fig5: in-order violated at ping round ", r,
                           ": got length ",
                           pingSeen[static_cast<std::size_t>(r)],
                           ", expected ", length(r));
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(pingSeen.size()));
        for (std::uint32_t v : pingSeen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(static_cast<std::uint64_t>(echoSeen.size()));
        for (std::uint32_t v : echoSeen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(static_cast<std::uint64_t>(ping.finished()));
        d.mix(static_cast<std::uint64_t>(echo.finished()));
        mixEndpoint(d, *epA);
        mixEndpoint(d, *epB);
    }

  private:
    void
    pingBody(sim::Process &self)
    {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!a.unet.send(self, *epA,
                             fragmentSend(chanA, {16384, length(r)})))
                UNET_PANIC("fig5: ping send ", r, " refused");
            a.unet.flush(self, *epA);
            if (!epA->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("fig5: ping timed out in round ", r);
            pingSeen.push_back(rd.length);
        }
    }

    void
    echoBody(sim::Process &self)
    {
        RecvDescriptor rd;
        for (int r = 0; r < rounds; ++r) {
            if (!epB->wait(self, rd, sim::seconds(1)))
                UNET_PANIC("fig5: echo timed out in round ", r);
            echoSeen.push_back(rd.length);
            if (!b.unet.send(self, *epB,
                             fragmentSend(chanB, {16384, rd.length})))
                UNET_PANIC("fig5: echo send ", r, " refused");
            b.unet.flush(self, *epB);
        }
    }

  protected:
    sim::Simulation s;
    eth::Hub hub;
    FeNode a, b;
    sim::Process ping, echo;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::vector<std::uint32_t> pingSeen, echoSeen;
};

// ---------------------------------------------------------- retransmit

/** Burst loss inside an AM send window, with symmetric bidirectional
 *  traffic: both sides fire their requests from the same tick (the
 *  same-tick concurrency the explorer permutes), the fault plane
 *  drops a burst in the A->B direction, and Go-Back-N must recover
 *  to exactly-once, in-order delivery with every window drained. */
class Retransmit : public Scenario
{
  public:
    static constexpr std::uint32_t messages = 3;

    Retransmit()
        : link(s), a(s, link, 0), b(s, link, 1),
          procA(s, "A", [this](sim::Process &p) { body(p, 0); }),
          procB(s, "B", [this](sim::Process &p) { body(p, 1); })
    {
        const EndpointConfig cfg = smallEndpoint(64 * 1024, 16);
        epA = &a.unet.createEndpoint(&procA, cfg);
        epB = &b.unet.createEndpoint(&procB, cfg);
        UNetFe::connect(a.unet, *epA, b.unet, *epB, chanA, chanB);

        amA = std::make_unique<am::ActiveMessages>(a.unet, *epA);
        amB = std::make_unique<am::ActiveMessages>(b.unet, *epB);
        amA->openChannel(chanA);
        amB->openChannel(chanB);
        amA->setHandler(
            1, [this](sim::Process &, am::Token, const am::Args &args,
                      std::span<const std::uint8_t>) {
                received[0].push_back(args[0]);
            });
        amB->setHandler(
            1, [this](sim::Process &, am::Token, const am::Args &args,
                      std::span<const std::uint8_t>) {
                received[1].push_back(args[0]);
            });

        // Deterministic burst: the 2nd and 3rd frames crossing the
        // A->B direction are dropped (direction 0 belongs to the
        // first-attached station, node a). Consumes no randomness.
        plan.model("eth.link.0").dropUnits = {1, 2};
        fault::attach(plan, s, link);

        procA.bindShardDomain(a.host.name());
        procB.bindShardDomain(b.host.name());
        // Same tick on both sides: their request trains and the
        // crossing ACK/data traffic are the permutable events.
        procA.start(sim::microseconds(5));
        procB.start(sim::microseconds(5));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkEnd() override
    {
        if (!procA.finished() || !procB.finished())
            UNET_PANIC("retransmit: deadlock (A finished=",
                       procA.finished() ? 1 : 0, ", B finished=",
                       procB.finished() ? 1 : 0, ")");
        for (int side = 0; side < 2; ++side) {
            const auto &ids = received[side];
            if (ids.size() != messages)
                UNET_PANIC("retransmit: exactly-once violated on side ",
                           side, ": handler ran ", ids.size(),
                           " times for ", messages, " requests");
            for (std::uint32_t i = 0; i < messages; ++i)
                if (ids[i] != i)
                    UNET_PANIC("retransmit: in-order violated on side ",
                               side, " at ", i, ": got id ", ids[i]);
        }
        if (amA->retransmits() == 0)
            UNET_PANIC("retransmit: the loss burst was never "
                       "exercised (no retransmissions)");
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int side = 0; side < 2; ++side) {
            d.mix(static_cast<std::uint64_t>(received[side].size()));
            for (am::Word v : received[side])
                d.mix(static_cast<std::uint64_t>(v));
        }
        d.mix(amA->sent());
        d.mix(amA->retransmits());
        d.mix(amA->received());
        d.mix(amB->sent());
        d.mix(amB->received());
        d.mix(amB->duplicates());
        d.mix(static_cast<std::uint64_t>(procA.finished()));
        d.mix(static_cast<std::uint64_t>(procB.finished()));
        mixEndpoint(d, *epA);
        mixEndpoint(d, *epB);
    }

  private:
    void
    body(sim::Process &p, int side)
    {
        am::ActiveMessages &am = side == 0 ? *amA : *amB;
        ChannelId chan = side == 0 ? chanA : chanB;
        for (std::uint32_t i = 0; i < messages; ++i)
            if (!am.request(p, chan, 1, {i, 0, 0, 0}))
                UNET_PANIC("retransmit: side ", side, " request ", i,
                           " refused");
        if (!am.drain(p, sim::seconds(1)))
            UNET_PANIC("retransmit: side ", side, " drain timed out");
        if (!am.pollUntil(
                p,
                [this, side] {
                    return received[side].size() >= messages;
                },
                sim::seconds(1)))
            UNET_PANIC("retransmit: side ", side, " receive timed out");
        // Let the final ACK flush so the peer's drain succeeds.
        am.pollUntil(p, [] { return false; }, sim::milliseconds(2));
    }

    sim::Simulation s;
    eth::FullDuplexLink link;
    FeNode a, b;
    sim::Process procA, procB;
    Endpoint *epA = nullptr;
    Endpoint *epB = nullptr;
    ChannelId chanA = invalidChannel, chanB = invalidChannel;
    std::unique_ptr<am::ActiveMessages> amA, amB;
    std::vector<am::Word> received[2];

    /** Declared last: armed injectors register metrics in s's
     *  registry and must deregister before it dies. */
    fault::Plan plan;
};

// --------------------------------------------------------------- demux

/** Three sender nodes fire at the same tick into three endpoints of
 *  one receiving node (over a switch, so no CSMA/CD backoff widens
 *  the space): whatever order the frames reach the receive demux,
 *  each message must land on its own endpoint, exactly once. */
class Demux : public Scenario
{
  public:
    static constexpr int lanes = 3;

    static std::uint32_t
    length(int lane)
    {
        return 40 + static_cast<std::uint32_t>(lane);
    }

    Demux() : sw(s), b(s, sw, lanes)
    {
        const EndpointConfig cfg = smallEndpoint(16 * 1024);
        for (int i = 0; i < lanes; ++i) {
            nodes.push_back(std::make_unique<FeNode>(s, sw, i));
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            senders.back()->bindShardDomain(nodes.back()->host.name());
            epA.push_back(&nodes[static_cast<std::size_t>(i)]
                               ->unet.createEndpoint(
                                   senders.back().get(), cfg));
            // Receiver endpoints have no process: messages are small,
            // land descriptor-inline, and are polled at the end.
            epB.push_back(&b.unet.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            UNetFe::connect(nodes[static_cast<std::size_t>(i)]->unet,
                            *epA.back(), b.unet, *epB.back(), ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("demux: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor rd;
            if (!ep.poll(rd))
                UNET_PANIC("demux: endpoint ", i, " received nothing");
            if (!rd.isSmall || rd.length != length(i))
                UNET_PANIC("demux: endpoint ", i, " got a ", rd.length,
                           "-byte message, expected ", length(i),
                           " (misrouted demux)");
            if (ep.poll(rd))
                UNET_PANIC("demux: endpoint ", i,
                           " received more than one message");
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = nodes[static_cast<std::size_t>(i)]->unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        if (!un.send(self, ep,
                     fragmentSend(chans[static_cast<std::size_t>(i)],
                                  {0, length(i)})))
            UNET_PANIC("demux: sender ", i, " refused");
        un.flush(self, ep);
    }

    sim::Simulation s;
    eth::Switch sw;
    FeNode b;
    std::vector<std::unique_ptr<FeNode>> nodes;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
};

// --------------------------------------------------- seeded-credit-bug

/**
 * The planted order-dependence regression. Six permutable events share
 * one tick; exactly one of the 720 orderings trips a credit
 * double-return (an extra release() beyond the two held credits),
 * which the scenario's own credit count reports as an underflow in
 * every build. The trigger order is chosen so that the salted
 * tie-break misses it for every salt in 0..100 (verified by the test
 * suite) — only enumeration finds it.
 */
class SeededCreditBug : public Scenario
{
  public:
    static constexpr int events = 6;

    /** The one firing order (of 720) that trips the planted bug. */
    static const std::vector<int> &
    buggyOrder()
    {
        static const std::vector<int> order = {3, 1, 4, 0, 5, 2};
        return order;
    }

    SeededCreditBug()
    {
        for (int i = 0; i < events; ++i)
            s.scheduleIn(sim::microseconds(10),
                         [this, i] { fired(i); });
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkEnd() override
    {
        if (order.size() != events)
            UNET_PANIC("seeded-credit-bug: only ", order.size(), " of ",
                       events, " events fired");
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(order.size()));
        for (int v : order)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(static_cast<std::uint64_t>(held));
    }

  private:
    void
    fired(int i)
    {
        order.push_back(i);
        if (order.size() == events && order == buggyOrder()) {
            // The planted bug: this interleaving releases one credit
            // more than it holds. The third release underflows.
            release();
            release();
            release();
        }
    }

    void
    release()
    {
        if (held == 0)
            UNET_PANIC("credit underflow: release with no message in "
                       "flight");
        --held;
    }

    sim::Simulation s;
    std::size_t held = 2; ///< credits in flight
    std::vector<int> order;
};

// ---------------------------------------------------------- sendv-race

/**
 * Batched-submission race on one ATM adapter. Three fibers on host A,
 * each owning its own endpoint on the SAME PCA-200, post overlapping
 * sendv descriptor trains from one wakeup tick; the i960's weighted tx
 * polls (one poll event per endpoint, racing each other and the
 * doorbells) drain all trains onto one shared fiber toward host B.
 * Oracles: per-lane exactly-once, in-order delivery; no receive-queue
 * drop at any step.
 */
class SendvRace : public Scenario
{
  public:
    static constexpr int lanes = 3;
    static constexpr std::uint32_t batch = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        // Single-cell (<= 40 bytes) so receives land descriptor-inline
        // and the rig needs no free-queue traffic; distinct per-lane,
        // per-position lengths make misrouting and reordering visible.
        return 16 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    SendvRace()
        : link(s, atm::LinkSpec::oc3()),
          hostA(s, "a", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          hostB(s, "b", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          nicA(hostA, link), nicB(hostB, link), ua(hostA, nicA),
          ub(hostB, nicB)
    {
        const EndpointConfig cfg = smallEndpoint(16 * 1024);
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            senders.back()->bindShardDomain(hostA.name());
            epA.push_back(
                &ua.createEndpoint(senders.back().get(), cfg));
            // Receiver endpoints have no process: messages are small,
            // land descriptor-inline, and are polled at the end.
            epB.push_back(&ub.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            UNetAtm::connectDirect(
                ua, *epA.back(), ub, *epB.back(),
                static_cast<atm::Vci>(10 + i), ca, cb);
            chans.push_back(ca);
        }
        // Both fibers wake at the same tick — that resume order is the
        // first choice point. Inside the body, lane i then delays
        // i*4 us (just over one sendv's PIO burst) so the single-CPU
        // host never sees two concurrent busy() computations; the i960
        // still needs ~20 us per train, so the second doorbellTrain
        // always lands mid-drain of the first and the firmware polls
        // race both trains' cells.
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("sendv-race: receive-queue drop in a "
                           "lossless rig");
        }
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("sendv-race: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor out[batch + 1];
            std::size_t got = ub.pollv(ep, out, batch + 1);
            if (got != batch)
                UNET_PANIC("sendv-race: lane ", i, " delivered ", got,
                           " of ", batch, " messages");
            for (std::uint32_t k = 0; k < batch; ++k) {
                if (!out[k].isSmall || out[k].length != length(i, k))
                    UNET_PANIC("sendv-race: lane ", i, " message ", k,
                               " has length ", out[k].length,
                               ", expected ", length(i, k),
                               " (misrouted or reordered)");
                if (out[k].inlineData[0] != k)
                    UNET_PANIC("sendv-race: lane ", i, " position ", k,
                               " carries sequence ",
                               unsigned(out[k].inlineData[0]));
            }
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(nicA.messagesSent());
        d.mix(nicB.messagesDelivered());
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        if (i)
            self.delay(sim::microseconds(4) *
                       static_cast<sim::Tick>(i));
        SendDescriptor descs[batch];
        for (std::uint32_t k = 0; k < batch; ++k) {
            descs[k].channel = chans[static_cast<std::size_t>(i)];
            descs[k].isInline = true;
            descs[k].inlineLength =
                static_cast<std::uint8_t>(length(i, k));
            descs[k].inlineData[0] = static_cast<std::uint8_t>(k);
        }
        std::size_t accepted =
            ua.sendv(self, *epA[static_cast<std::size_t>(i)], descs,
                     batch);
        if (accepted != batch)
            UNET_PANIC("sendv-race: lane ", i, " sendv accepted ",
                       accepted, " of ", batch);
    }

    sim::Simulation s;
    atm::AtmLink link;
    host::Host hostA, hostB;
    nic::Pca200 nicA, nicB;
    UNetAtm ua, ub;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
};

// -------------------------------------------------------- atm-cmdqueue

/**
 * The host-driver command queue racing the firmware's polling loop.
 * Two fibers on one ATM host, each owning its own endpoint on the SAME
 * PCA-200, wake at one tick and post scalar sends — each send followed
 * by an explicit flush, i.e. one doorbell command per descriptor on
 * the adapter's command queue. The i960 runs one weighted tx-poll
 * event per endpoint; those polls race each other, the doorbells, and
 * the second fiber's posts landing mid-drain. Oracles: per-lane
 * exactly-once, in-order delivery at host B; a no-drop invariant
 * each step.
 */
class AtmCmdQueue : public Scenario
{
  public:
    static constexpr int lanes = 2;
    static constexpr std::uint32_t messages = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        // Single-cell (<= 40 bytes), descriptor-inline on receive;
        // distinct per-lane, per-position lengths expose misrouting
        // and reordering.
        return 20 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    AtmCmdQueue()
        : link(s, atm::LinkSpec::oc3()),
          hostA(s, "a", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          hostB(s, "b", host::CpuSpec::pentium120(),
                host::BusSpec::pci()),
          nicA(hostA, link), nicB(hostB, link), ua(hostA, nicA),
          ub(hostB, nicB)
    {
        const EndpointConfig cfg = smallEndpoint(16 * 1024);
        for (int i = 0; i < lanes; ++i) {
            senders.push_back(std::make_unique<sim::Process>(
                s, "cmd" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            senders.back()->bindShardDomain(hostA.name());
            epA.push_back(
                &ua.createEndpoint(senders.back().get(), cfg));
            // Receiver endpoints have no process: single-cell messages
            // land descriptor-inline and are polled at the end.
            epB.push_back(&ub.createEndpoint(nullptr, cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            UNetAtm::connectDirect(
                ua, *epA.back(), ub, *epB.back(),
                static_cast<atm::Vci>(20 + i), ca, cb);
            chans.push_back(ca);
        }
        // Same tick: the wakeup order is the first choice point. Lane 1
        // then delays past lane 0's PIO burst (one CPU), but well
        // inside the i960's multi-microsecond drain of lane 0's
        // commands, so its doorbells land mid-poll.
        for (auto &proc : senders)
            proc->start(sim::microseconds(10));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("atm-cmdqueue: receive-queue drop in a "
                           "lossless rig");
        }
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("atm-cmdqueue: sender ", proc->name(),
                           " did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor out[messages + 1];
            std::size_t got = ub.pollv(ep, out, messages + 1);
            if (got != messages)
                UNET_PANIC("atm-cmdqueue: lane ", i, " delivered ",
                           got, " of ", messages, " messages");
            for (std::uint32_t k = 0; k < messages; ++k) {
                if (!out[k].isSmall || out[k].length != length(i, k))
                    UNET_PANIC("atm-cmdqueue: lane ", i, " message ",
                               k, " has length ", out[k].length,
                               ", expected ", length(i, k),
                               " (misrouted or reordered)");
                if (out[k].inlineData[0] != k)
                    UNET_PANIC("atm-cmdqueue: lane ", i, " position ",
                               k, " carries sequence ",
                               unsigned(out[k].inlineData[0]));
            }
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(nicA.messagesSent());
        d.mix(nicB.messagesDelivered());
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        // Past lane 0's whole PIO burst (~7.5 us per posted command on
        // one CPU), inside the i960's ~10 us-per-message drain of lane
        // 0's commands: the doorbells land mid-poll.
        if (i)
            self.delay(sim::microseconds(16) *
                       static_cast<sim::Tick>(i));
        for (std::uint32_t k = 0; k < messages; ++k) {
            SendDescriptor sd;
            sd.channel = chans[static_cast<std::size_t>(i)];
            sd.isInline = true;
            sd.inlineLength =
                static_cast<std::uint8_t>(length(i, k));
            sd.inlineData[0] = static_cast<std::uint8_t>(k);
            if (!ua.send(self, *epA[static_cast<std::size_t>(i)], sd))
                UNET_PANIC("atm-cmdqueue: lane ", i, " send ", k,
                           " refused");
            // One doorbell command per descriptor: the command-queue
            // traffic the firmware polls race against.
            ua.flush(self, *epA[static_cast<std::size_t>(i)]);
        }
    }

    sim::Simulation s;
    atm::AtmLink link;
    host::Host hostA, hostB;
    nic::Pca200 nicA, nicB;
    UNetAtm ua, ub;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    std::vector<ChannelId> chans;
};

// -------------------------------------------------------------- upcall

/**
 * The signal-handler receive model under racing arrivals. Two sender
 * nodes wake at one tick and each posts two small messages through a
 * switch into ONE receiving endpoint that uses setUpcall() — every
 * activation pays the signal-delivery latency once, then consumes all
 * pending messages. The explorer permutes which sender's frames reach
 * the demux first and how arrivals batch into activations; whatever
 * the interleaving, each lane's messages must arrive exactly once and
 * in per-lane order.
 */
class Upcall : public Scenario
{
  public:
    static constexpr int lanes = 2;
    static constexpr std::uint32_t messages = 2;

    static std::uint32_t
    length(int lane, std::uint32_t k)
    {
        return 40 + 8 * static_cast<std::uint32_t>(lane) + k;
    }

    Upcall() : sw(s), b(s, sw, lanes)
    {
        const EndpointConfig cfg = smallEndpoint(16 * 1024);
        // The receiving endpoint has no process: the upcall IS the
        // receive discipline.
        epB = &b.unet.createEndpoint(nullptr, cfg);
        epB->setUpcall(
            [this](const RecvDescriptor &rd) {
                ++handlerRuns;
                seen.push_back(rd.length);
            },
            sim::microseconds(5));
        for (int i = 0; i < lanes; ++i) {
            nodes.push_back(std::make_unique<FeNode>(s, sw, i));
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            senders.back()->bindShardDomain(nodes.back()->host.name());
            epA.push_back(&nodes[static_cast<std::size_t>(i)]
                               ->unet.createEndpoint(
                                   senders.back().get(), cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            UNetFe::connect(nodes[static_cast<std::size_t>(i)]->unet,
                            *epA.back(), b.unet, *epB, ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        if (epB->rxQueueDrops())
            UNET_PANIC("upcall: receive-queue drop in a lossless rig");
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("upcall: sender ", proc->name(),
                           " did not finish");
        if (seen.size() != lanes * messages)
            UNET_PANIC("upcall: exactly-once violated: handler saw ",
                       seen.size(), " of ", lanes * messages,
                       " messages");
        // Per-lane in-order: decode (lane, k) from the length and
        // require each lane's sequence to be 0,1,... in seen order.
        std::uint32_t nextInLane[lanes] = {};
        for (std::uint32_t len : seen) {
            std::uint32_t lane = (len - 40) / 8;
            std::uint32_t k = (len - 40) % 8;
            if (lane >= lanes || k >= messages)
                UNET_PANIC("upcall: impossible length ", len);
            if (k != nextInLane[lane])
                UNET_PANIC("upcall: lane ", lane,
                           " out of order: got sequence ", k,
                           ", expected ", nextInLane[lane]);
            ++nextInLane[lane];
        }
    }

    void
    mixState(obs::Digest &d) const override
    {
        d.mix(static_cast<std::uint64_t>(seen.size()));
        for (std::uint32_t v : seen)
            d.mix(static_cast<std::uint64_t>(v));
        d.mix(handlerRuns);
        for (auto &proc : senders)
            d.mix(static_cast<std::uint64_t>(proc->finished()));
        for (auto *ep : epA)
            mixEndpoint(d, *ep);
        mixEndpoint(d, *epB);
    }

  private:
    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = nodes[static_cast<std::size_t>(i)]->unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        for (std::uint32_t k = 0; k < messages; ++k) {
            // Distinct gather regions: the first frame's buffer stays
            // agent-owned until it leaves the NIC.
            if (!un.send(self, ep,
                         fragmentSend(chans[static_cast<std::size_t>(i)],
                                      {k * 4096, length(i, k)})))
                UNET_PANIC("upcall: sender ", i, " send ", k,
                           " refused");
            un.flush(self, ep);
        }
    }

    sim::Simulation s;
    eth::Switch sw;
    FeNode b;
    std::vector<std::unique_ptr<FeNode>> nodes;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA;
    Endpoint *epB = nullptr;
    std::vector<ChannelId> chans;
    std::vector<std::uint32_t> seen;
    std::uint64_t handlerRuns = 0;
};

// ------------------------------------------------------------ ep-evict

/**
 * Endpoint-residency churn under concurrent traffic. The receiving
 * node's hot set holds 2 of its 3 endpoints, so endpoint 0 starts
 * paged out (creation order warms 0, 1, 2 and the third warm evicts
 * the LRU). From one tick: three remote senders fire into endpoints
 * 0/1/2 — the receive demux faults endpoint 0 back in and evicts a
 * neighbour, racing the other arrivals — while a local fiber sends
 * *from* endpoint 0, whose trap-side drain races the same page-in and
 * holds a pin across the device TX ring. Whatever the interleaving:
 * exactly-once per-lane delivery, the hot set never exceeds capacity,
 * a pinned endpoint is never evicted (the cache panics if the LRU
 * scan is wrong), at least one fault is charged (endpoint 0 cannot
 * start resident), and every pin is released by quiescence.
 */
class EpEvict : public Scenario
{
  public:
    static constexpr int lanes = 3;
    static constexpr std::size_t hotCapacity = 2;

    static std::uint32_t
    length(int lane)
    {
        return 40 + static_cast<std::uint32_t>(lane);
    }

    static constexpr std::uint32_t beeLength = 52;

    EpEvict()
        : sw(s), b(s, sw, lanes, receiverSpec()), c(s, sw, lanes + 1),
          bee(s, "bee", [this](sim::Process &p) { beeBody(p); })
    {
        const EndpointConfig cfg = smallEndpoint(16 * 1024);
        bee.bindShardDomain(b.host.name());
        // Endpoint 0 first: the two later warms evict it, so it is
        // the guaranteed-cold endpoint both race arms contend over.
        for (int i = 0; i < lanes; ++i)
            epB.push_back(&b.unet.createEndpoint(
                i == 0 ? &bee : nullptr, cfg));
        epC = &c.unet.createEndpoint(nullptr, cfg);
        UNetFe::connect(b.unet, *epB[0], c.unet, *epC, chanBee,
                        chanAtC);
        for (int i = 0; i < lanes; ++i) {
            nodes.push_back(std::make_unique<FeNode>(s, sw, i));
            senders.push_back(std::make_unique<sim::Process>(
                s, "send" + std::to_string(i),
                [this, i](sim::Process &p) { senderBody(p, i); }));
            senders.back()->bindShardDomain(nodes.back()->host.name());
            epA.push_back(&nodes[static_cast<std::size_t>(i)]
                               ->unet.createEndpoint(
                                   senders.back().get(), cfg));
            ChannelId ca = invalidChannel, cb = invalidChannel;
            UNetFe::connect(nodes[static_cast<std::size_t>(i)]->unet,
                            *epA.back(),
                            b.unet, *epB[static_cast<std::size_t>(i)],
                            ca, cb);
            chans.push_back(ca);
        }
        for (auto &proc : senders)
            proc->start(sim::microseconds(10)); // same tick: the race
        bee.start(sim::microseconds(10));
    }

    sim::Simulation &simulation() override { return s; }

    void
    checkStep() override
    {
        for (int i = 0; i < lanes; ++i) {
            if (epB[static_cast<std::size_t>(i)]->rxQueueDrops())
                UNET_PANIC("ep-evict: receive-queue drop in a "
                           "lossless rig");
        }
        const vep::ResidencyCache &cache = b.unet.residency();
        if (cache.residentCount() > hotCapacity)
            UNET_PANIC("ep-evict: ", cache.residentCount(),
                       " endpoints resident in a ", hotCapacity,
                       "-slot hot set");
    }

    void
    checkEnd() override
    {
        for (auto &proc : senders)
            if (!proc->finished())
                UNET_PANIC("ep-evict: sender ", proc->name(),
                           " did not finish");
        if (!bee.finished())
            UNET_PANIC("ep-evict: bee did not finish");
        for (int i = 0; i < lanes; ++i) {
            Endpoint &ep = *epB[static_cast<std::size_t>(i)];
            RecvDescriptor rd;
            if (!ep.poll(rd))
                UNET_PANIC("ep-evict: endpoint ", i,
                           " received nothing");
            if (!rd.isSmall || rd.length != length(i))
                UNET_PANIC("ep-evict: endpoint ", i, " got a ",
                           rd.length, "-byte message, expected ",
                           length(i), " (misrouted demux)");
            if (ep.poll(rd))
                UNET_PANIC("ep-evict: endpoint ", i,
                           " received more than one message");
        }
        RecvDescriptor rd;
        if (!epC->poll(rd) || rd.length != beeLength)
            UNET_PANIC("ep-evict: bee's message never reached node c");
        if (epC->poll(rd))
            UNET_PANIC("ep-evict: node c received a duplicate");
        const vep::ResidencyCache &cache = b.unet.residency();
        if (cache.faults() == 0)
            UNET_PANIC("ep-evict: no residency fault charged, but "
                       "endpoint 0 started paged out");
        if (cache.pinnedCount() != 0)
            UNET_PANIC("ep-evict: ", cache.pinnedCount(),
                       " pins still held at quiescence");
    }

    void
    mixState(obs::Digest &d) const override
    {
        for (int i = 0; i < lanes; ++i) {
            d.mix(static_cast<std::uint64_t>(
                senders[static_cast<std::size_t>(i)]->finished()));
            mixEndpoint(d, *epA[static_cast<std::size_t>(i)]);
            mixEndpoint(d, *epB[static_cast<std::size_t>(i)]);
        }
        d.mix(static_cast<std::uint64_t>(bee.finished()));
        mixEndpoint(d, *epC);
        const vep::ResidencyCache &cache = b.unet.residency();
        d.mix(cache.stateHash());
        d.mix(cache.faults());
        d.mix(cache.evictions());
        d.mix(cache.hits());
        d.mix(static_cast<std::uint64_t>(cache.residentCount()));
        d.mix(static_cast<std::uint64_t>(cache.pinnedCount()));
    }

  private:
    static topo::NodeSpec
    receiverSpec()
    {
        topo::NodeSpec spec;
        spec.fe.vep.hotCapacity = hotCapacity;
        return spec;
    }

    void
    beeBody(sim::Process &self)
    {
        if (!b.unet.send(self, *epB[0],
                         fragmentSend(chanBee, {0, beeLength})))
            UNET_PANIC("ep-evict: bee send refused");
        b.unet.flush(self, *epB[0]);
    }

    void
    senderBody(sim::Process &self, int i)
    {
        UNetFe &un = nodes[static_cast<std::size_t>(i)]->unet;
        Endpoint &ep = *epA[static_cast<std::size_t>(i)];
        if (!un.send(self, ep,
                     fragmentSend(chans[static_cast<std::size_t>(i)],
                                  {0, length(i)})))
            UNET_PANIC("ep-evict: sender ", i, " refused");
        un.flush(self, ep);
    }

    sim::Simulation s;
    eth::Switch sw;
    FeNode b, c;
    sim::Process bee;
    std::vector<std::unique_ptr<FeNode>> nodes;
    std::vector<std::unique_ptr<sim::Process>> senders;
    std::vector<Endpoint *> epA, epB;
    Endpoint *epC = nullptr;
    std::vector<ChannelId> chans;
    ChannelId chanBee = invalidChannel, chanAtC = invalidChannel;
};

// --------------------------------------------------------------- serve

/** A small serving cluster from the RPC plane: two closed-loop
 *  clients fan into one server across the Bay-28115 switch model.
 *  ServeRig binds every fiber to its host's shard domain. */
class ServeCluster : public Scenario
{
  public:
    ServeCluster() : rig(spec())
    {
        serve::Workload w;
        w.closedLoop = true;
        w.requestsPerClient = 4;
        w.window = 1;
        rig.start(w);
    }

    sim::Simulation &simulation() override { return rig.simulation(); }

    void
    checkEnd() override
    {
        serve::RunResult res = rig.result();
        if (!res.finished)
            UNET_PANIC("serve: rig did not quiesce");
        if (res.completed == 0)
            UNET_PANIC("serve: no request completed");
    }

  private:
    static serve::RigSpec
    spec()
    {
        serve::RigSpec spec;
        spec.nic = serve::NicKind::Fe;
        spec.clients = 2;
        return spec;
    }

    serve::ServeRig rig;
};

// ---------------------------------------------------------- planted-ww

/** Two fibers on different shard domains write one ResidencyCache
 *  with no scheduler edge between them: the canonical write/write
 *  cross-shard race the parallel backend would hit. */
class PlantedWw : public Scenario
{
  public:
    PlantedWw()
        : cache(s, {}, "planted.vep"),
          writerA(s, "writerA", [this](sim::Process &) { cache.touch(1); }),
          writerB(s, "writerB", [this](sim::Process &) { cache.touch(2); })
    {
        writerA.bindShardDomain("shardA");
        writerB.bindShardDomain("shardB");
        // Both start events are scheduled from the boot context before
        // either ran, so neither fiber's clock covers the other: the
        // two touches are concurrent under the happens-before model
        // even though the serial event loop runs them 5us apart.
        writerA.start(sim::microseconds(5));
        writerB.start(sim::microseconds(10));
    }

    sim::Simulation &simulation() override { return s; }

  private:
    sim::Simulation s;
    vep::ResidencyCache cache;
    sim::Process writerA, writerB;
};

// ---------------------------------------------------------- planted-rw

/** fig5 plus a foreign-shard monitor fiber that peeks node0's send
 *  ring: a read/write cross-shard race on a Figure-1 ring. The spy's
 *  start event predates all of node0's writes, so nothing orders them.
 *  observe() is deliberate: a foreign READ is not a custody violation,
 *  only a sharding hazard — exactly the class the custody plane alone
 *  cannot catch. */
class PlantedRw : public Fig5
{
  public:
    PlantedRw() : spy(s, "spy", [this](sim::Process &) { peek(); })
    {
        spy.bindShardDomain("monitor");
        spy.start(sim::microseconds(400));
    }

    void
    checkEnd() override
    {
        Fig5::checkEnd();
        if (!spy.finished())
            UNET_PANIC("planted-rw: spy did not finish");
    }

  private:
    void peek() { epA->sendGuard().observe("spy ring peek"); }

    sim::Process spy;
};

// ------------------------------------------------------------ registry

template <typename Rig>
std::unique_ptr<Scenario>
make()
{
    return std::make_unique<Rig>();
}

const ScenarioEntry table[] = {
    {"fig5",
     "two-node FE ping-pong (Figure 5 rig), two rounds, in-order + "
     "exactly-once oracles", false, make<Fig5>},
    {"retransmit",
     "burst loss inside an AM window; Go-Back-N recovery to "
     "exactly-once delivery with every window drained", false,
     make<Retransmit>},
    {"demux",
     "three same-tick senders into three endpoints of one node; the "
     "receive-demux race", false, make<Demux>},
    {"seeded-credit-bug",
     "planted credit double-return on one of 720 same-tick orderings; "
     "the regression salts miss", false, make<SeededCreditBug>},
    {"sendv-race",
     "three overlapping sendv descriptor trains on one ATM adapter "
     "racing the firmware tx polls; exactly-once + in-order oracles",
     false, make<SendvRace>},
    {"atm-cmdqueue",
     "scalar doorbell commands from two fibers on one ATM adapter "
     "racing the i960 command-queue polls; exactly-once + in-order "
     "oracles", false, make<AtmCmdQueue>},
    {"upcall",
     "two senders race into one endpoint in the upcall receive model; "
     "per-lane exactly-once + in-order oracles over activation "
     "batching", false, make<Upcall>},
    {"ep-evict",
     "receive demux races LRU eviction of a 2-slot endpoint hot set "
     "while a local send races its own page-in; exactly-once + "
     "capacity + pin-safety oracles", false, make<EpEvict>},
    {"serve", "two RPC clients fanning into one server", false,
     make<ServeCluster>},
    {"planted-ww", "planted write/write race on a ResidencyCache", true,
     make<PlantedWw>},
    {"planted-rw",
     "planted read/write race on an endpoint send ring (fig5 + a "
     "foreign-shard spy)", true, make<PlantedRw>},
};

} // namespace

std::span<const ScenarioEntry>
scenarios()
{
    return table;
}

const ScenarioEntry *
findScenario(std::string_view name)
{
    for (const ScenarioEntry &entry : table)
        if (name == entry.name)
            return &entry;
    return nullptr;
}

void
listScenarios(std::ostream &os)
{
    for (const ScenarioEntry &entry : table)
        os << entry.name << (entry.plantedRace ? "  [planted race]" : "")
           << "\n    " << entry.description << "\n";
}

} // namespace unet::check
