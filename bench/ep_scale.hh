/**
 * @file
 * Measurement core for the endpoint-virtualization scaling curve.
 *
 * One sender host drives a round-robin ping-pong over W materialized
 * endpoints (W = min(N, 64): the FE port byte and the host memory
 * arena bound the live working set) against a single echo endpoint on
 * a second host; the remaining N - W endpoints are registered cold in
 * the sender's EndpointTable — ids the OS service tracks whose NIC
 * state notionally lives paged out in host memory. The sender NIC's
 * ResidencyCache is clamped to the hot-set capacity under test, so
 * round-robin traffic over W > H endpoints is the LRU worst case:
 * every doorbell faults, and the measured round-trip inflates by
 * exactly the modeled page-in/page-out costs.
 *
 * Shared by bench/ep_scale (the published curve) and the perturbation
 * stability test (digests must be bit-identical across salts 1-5).
 */

#ifndef UNET_BENCH_EP_SCALE_HH
#define UNET_BENCH_EP_SCALE_HH

#include <cstdint>
#include <vector>

#include "bench/harness.hh"

namespace unet::bench {

/** One (fabric, N, H) cell of the scaling curve. */
struct EpScaleResult
{
    bool ok = false;

    /** Mean measured round-trip, microseconds. */
    double rttUs = 0.0;

    /** Sender-NIC residency faults per simulated second of the
     *  measured window (0 when the working set fits the hot set). */
    double faultsPerSec = 0.0;

    std::uint64_t faults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t hits = 0;

    /** Ids the sender's endpoint table carries (cold tail included). */
    std::size_t tableSize = 0;

    /** Order-sensitive digest of every measured round-trip in ticks
     *  plus the final residency counters: bit-identical across
     *  perturbation salts or the determinism gate fails. */
    std::uint64_t digest = 0;
};

namespace detail {

inline std::uint64_t
mix64(std::uint64_t h, std::uint64_t v)
{
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 0xff51afd7ed558ccdull;
    return h ^ (h >> 33);
}

} // namespace detail

/**
 * Run one scaling-curve cell: @p total endpoint ids on the sender
 * (min(total, 64) materialized, the rest cold), sender hot-set
 * capacity @p hot_capacity, @p rounds measured ping-pong sweeps after
 * one warmup sweep.
 */
inline EpScaleResult
runEpScale(Fabric fabric, std::size_t total, std::size_t hot_capacity,
           int rounds = 3)
{
    constexpr std::size_t kMessageBytes = 40;
    constexpr std::uint32_t kSenderTxOffset = 4096;
    const std::size_t working = total < 64 ? total : 64;

    RigOptions opts;
    opts.feSpec.vep.hotCapacity = hot_capacity;
    opts.pcaSpec.vep.hotCapacity = hot_capacity;

    sim::Simulation s;
    RawPair rig(s, fabric, opts);
    const bool atm = rig.isAtm();

    EpScaleResult res;
    std::vector<sim::Tick> rtts;
    rtts.reserve(static_cast<std::size_t>(rounds) * working);
    sim::Tick meas_start = -1, meas_end = -1;
    std::uint64_t faults_at_start = 0;
    int delivered = 0;
    const int expected =
        (rounds + 1) * static_cast<int>(working);
    Endpoint *echo_ep = nullptr;

    // Echo fiber: every request bounces straight back on its arrival
    // channel. The single server-side endpoint stays hot; all the
    // residency churn under study happens on the sender NIC.
    sim::Process echo(s, "echo", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = *echo_ep;
        postRecvBuffers(un, self, ep, 8);
        RecvDescriptor rd;
        while (delivered < expected) {
            if (!ep.wait(self, rd, sim::seconds(1)))
                return;
            ++delivered;
            ChannelId back = rd.channel;
            recycleBuffers(un, self, ep, rd);
            rawSend(un, self, ep, back, kMessageBytes, 16384, !atm);
            un.flush(self, ep);
        }
    });

    std::vector<Endpoint *> eps(working, nullptr);
    std::vector<ChannelId> chans(working, invalidChannel);

    sim::Process sender(s, "sender", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        for (std::size_t i = 0; i < working; ++i)
            for (int b = 0; b < 2; ++b)
                un.postFree(self, *eps[i],
                            {static_cast<std::uint32_t>(b * 2048),
                             2048});
        RecvDescriptor rd;
        for (int r = 0; r < rounds + 1; ++r) {
            if (r == 1) {
                meas_start = s.now();
                faults_at_start = rig.residency(0).faults();
            }
            for (std::size_t i = 0; i < working; ++i) {
                sim::Tick t0 = s.now();
                rawSend(un, self, *eps[i], chans[i], kMessageBytes,
                        kSenderTxOffset, !atm);
                un.flush(self, *eps[i]);
                if (!eps[i]->wait(self, rd, sim::seconds(1)))
                    return;
                recycleBuffers(un, self, *eps[i], rd);
                if (r > 0)
                    rtts.push_back(s.now() - t0);
            }
        }
        meas_end = s.now();
        res.ok = true;
    });

    // Materialize the working set: small rings, an 8 KB buffer area
    // (two 2 KB receive slots + one TX slot), W of them per 4 MB host
    // arena. The echo endpoint keeps stock queue depths but needs a
    // channel per sender.
    EndpointConfig sender_cfg;
    sender_cfg.sendQueueDepth = 8;
    sender_cfg.recvQueueDepth = 8;
    sender_cfg.freeQueueDepth = 8;
    sender_cfg.bufferAreaBytes = 8 * 1024;
    sender_cfg.maxChannels = 2;

    EndpointConfig echo_cfg;
    echo_cfg.bufferAreaBytes = 32 * 1024;
    echo_cfg.maxChannels = working + 4;

    auto &un_a = rig.unetOf(0);
    auto &un_b = rig.unetOf(1);
    echo_ep = &un_b.createEndpoint(&echo, echo_cfg);
    for (std::size_t i = 0; i < working; ++i)
        eps[i] = &un_a.createEndpoint(&sender, sender_cfg);

    // The cold tail: ids N = W..total-1 exist (the table knows them,
    // the OS accounts for them) but own no rings and no buffer area.
    un_a.table().reserve(total);
    for (std::size_t i = working; i < total; ++i)
        un_a.table().registerCold();

    for (std::size_t i = 0; i < working; ++i) {
        ChannelId at_b = invalidChannel;
        rig.connectExtra(*eps[i], *echo_ep, chans[i], at_b);
    }

    echo.start();
    sender.start(sim::microseconds(5));
    s.run();

    if (!res.ok || rtts.empty())
        return res;

    const vep::ResidencyCache &cache = rig.residency(0);
    res.faults = cache.faults();
    res.evictions = cache.evictions();
    res.hits = cache.hits();
    res.tableSize = un_a.table().size();

    sim::Tick sum = 0;
    std::uint64_t digest = 0x243f6a8885a308d3ull;
    for (sim::Tick t : rtts) {
        sum += t;
        digest = detail::mix64(digest,
                               static_cast<std::uint64_t>(t));
    }
    digest = detail::mix64(digest, res.faults);
    digest = detail::mix64(digest, res.evictions);
    digest = detail::mix64(digest, res.hits);
    res.digest = digest;
    res.rttUs = sim::toMicroseconds(sum) /
        static_cast<double>(rtts.size());
    if (meas_end > meas_start) {
        double secs = sim::toSeconds(meas_end - meas_start);
        res.faultsPerSec =
            static_cast<double>(res.faults - faults_at_start) / secs;
    }
    return res;
}

} // namespace unet::bench

#endif // UNET_BENCH_EP_SCALE_HH
