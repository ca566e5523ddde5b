/**
 * @file
 * Per-message sender overhead vs submission batch size, both NICs.
 *
 * One sender posts 256 40-byte messages through sendv() in batches of
 * 1/4/16/64 and we charge it the *simulated* time each sendv call
 * occupies the CPU — descriptor pushes plus, per batch, one kernel
 * trap + coalesced poll demand (U-Net/FE) or one PIO burst + doorbell
 * train (U-Net/ATM). The receiver drains with pollv on the other
 * host, and the sender waits for its queue to empty between batches
 * so every batch starts from the same quiescent state. The curve is
 * the point of the fast path: batch=1 must equal the scalar send cost
 * and larger batches must amortize the fixed per-trap/per-doorbell
 * cost toward the per-descriptor floor.
 *
 * Emits unet-bench-v1 JSON for tools/bench_compare.py; ctest
 * (cli.micro_batch.baseline) fails if any row moves, so losing the
 * batched path's amortization fails every build.
 *
 * Usage: micro_batch [output.json]   (default BENCH_micro_batch.json)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

constexpr std::size_t kMessageBytes = 40;
constexpr int kMessages = 256;

/**
 * Simulated sender occupancy per message, in nanoseconds, when the
 * sender posts in batches of @p batch over @p fabric.
 */
double
overheadPerMessageNs(Fabric fabric, std::size_t batch)
{
    sim::Simulation s;
    RawPair rig(s, fabric);

    int delivered = 0;
    sim::Tick occupancy = 0;

    sim::Process sink(s, "sink", [&](sim::Process &self) {
        auto &un = rig.unetOf(1);
        auto &ep = rig.ep(1);
        postRecvBuffers(un, self, ep, 32);
        RecvDescriptor rd[64];
        while (delivered < kMessages) {
            RecvDescriptor first;
            if (!ep.wait(self, first, sim::milliseconds(200)))
                return; // stalled; report what was measured
            rd[0] = first;
            std::size_t got = 1 + un.pollv(ep, rd + 1, 63);
            for (std::size_t i = 0; i < got; ++i) {
                ++delivered;
                if (!rd[i].isSmall)
                    for (std::uint8_t b = 0; b < rd[i].bufferCount; ++b)
                        un.postFree(self, ep,
                                    {rd[i].buffers[b].offset, 2048});
            }
        }
    });

    sim::Process source(s, "source", [&](sim::Process &self) {
        auto &un = rig.unetOf(0);
        auto &ep = rig.ep(0);
        // The FE path is zero-copy from the buffer area: rotate 2 KB
        // slots round-robin over the whole 256 KB area (128 slots).
        // Buffer custody returns at the tx-complete reap, which can
        // trail the send queue going empty, so per-batch slot reuse
        // would trip the ownership tracker. ATM 40-byte sends go
        // inline.
        const std::uint32_t slots =
            static_cast<std::uint32_t>(ep.buffers().size() / 2048);
        SendDescriptor descs[64];
        for (int posted = 0; posted < kMessages;) {
            const std::size_t want = std::min<std::size_t>(
                batch, static_cast<std::size_t>(kMessages - posted));
            for (std::size_t k = 0; k < want; ++k) {
                SendDescriptor &sd = descs[k];
                sd = SendDescriptor{};
                sd.channel = rig.chan(0);
                if (rig.isAtm()) {
                    sd.isInline = true;
                    sd.inlineLength = kMessageBytes;
                } else {
                    sd.isInline = false;
                    sd.fragmentCount = 1;
                    sd.fragments[0] = {
                        ((static_cast<std::uint32_t>(posted) +
                          static_cast<std::uint32_t>(k)) %
                         slots) *
                            2048,
                        kMessageBytes};
                }
            }
            sim::Tick t0 = s.now();
            std::size_t accepted = un.sendv(self, ep, descs, want);
            occupancy += s.now() - t0;
            if (accepted != want) {
                std::fprintf(stderr,
                             "batch accepted %zu of %zu after drain\n",
                             accepted, want);
                return;
            }
            posted += static_cast<int>(want);
            // Quiesce: every batch pays its own trap/doorbell, and
            // the FE buffer slots come back before they are reused.
            do {
                self.delay(sim::microseconds(20));
                un.flush(self, ep);
            } while (!ep.sendQueue().empty());
        }
    });

    rig.wire(source, sink);
    sink.start();
    source.start(sim::microseconds(5));
    s.run();

    if (delivered < kMessages)
        return -1.0;
    // Ticks are picoseconds; report nanoseconds.
    return static_cast<double>(occupancy) /
        static_cast<double>(kMessages) / 1e3;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *out_path = outputPath(
        argc, argv, "micro_batch [output.json]", "BENCH_micro_batch.json");

    const std::size_t batches[] = {1, 4, 16, 64};
    std::vector<BenchRow> rows;

    std::printf("per-message sender overhead (simulated ns) vs batch "
                "size, %d x %zu-byte messages\n",
                kMessages, kMessageBytes);
    std::printf("%8s %14s %14s\n", "batch", "U-Net/FE", "U-Net/ATM");
    for (std::size_t b : batches) {
        double fe = overheadPerMessageNs(Fabric::FeBay, b);
        double atm = overheadPerMessageNs(Fabric::AtmOc3, b);
        std::printf("%8zu %14.1f %14.1f\n", b, fe, atm);
        if (fe < 0 || atm < 0) {
            std::fprintf(stderr, "measurement stalled\n");
            return 1;
        }
        rows.push_back({"fe_overhead_per_msg_batch" + std::to_string(b),
                        fe, "ns"});
        rows.push_back({"atm_overhead_per_msg_batch" +
                            std::to_string(b),
                        atm, "ns"});
    }

    return writeBenchJson(out_path, rows) ? 0 : 1;
}
