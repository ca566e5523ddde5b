/**
 * @file
 * Ablation: full- vs half-duplex switched Fast Ethernet.
 *
 * "Such a private link can be a full-duplex link which allows a host
 * to simultaneously send and receive messages (as opposed to a shared
 * half-duplex link) and thus doubles the aggregate network bandwidth."
 * This bench runs simultaneous bidirectional bulk traffic through the
 * switch in both modes and reports the aggregate goodput.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

namespace {

constexpr std::size_t msgBytes = 1400;
constexpr int messages = 200;

double
bidirectionalMbps(bool full_duplex)
{
    RigOptions opts;
    opts.switchSpec.fullDuplex = full_duplex;

    sim::Simulation s;
    RawPair rig(s, Fabric::FeBay, opts);

    int delivered = 0;
    sim::Tick first = -1, last = -1;

    auto consume = [&](UNet &un, sim::Process &self, Endpoint &ep,
                       const RecvDescriptor &rd) {
        if (first < 0)
            first = s.now();
        last = s.now();
        ++delivered;
        recycleBuffers(un, self, ep, rd);
    };

    auto node = [&](int side) {
        return [&, side](sim::Process &self) {
            auto &un = rig.unetOf(side);
            auto &ep = rig.ep(side);
            postRecvBuffers(un, self, ep, 16);
            int sent = 0, got = 0;
            RecvDescriptor rd;
            while (sent < messages || got < messages) {
                // Drain anything pending.
                while (ep.poll(rd)) {
                    ++got;
                    consume(un, self, ep, rd);
                }
                if (sent < messages) {
                    // Past the 16 receive buffers; up to 128 sends
                    // (send queue + TX ring) are outstanding.
                    if (rawSend(un, self, ep, rig.chan(side), msgBytes,
                                txSlot(ep, 40000, msgBytes, sent))) {
                        ++sent;
                    } else {
                        self.delay(sim::microseconds(20));
                        un.flush(self, ep);
                    }
                } else {
                    un.flush(self, ep);
                    if (!ep.wait(self, rd, sim::milliseconds(20)))
                        break; // peer stalled out; report what we saw
                    ++got;
                    consume(un, self, ep, rd);
                }
            }
        };
    };

    sim::Process a(s, "a", node(0));
    sim::Process b(s, "b", node(1));
    rig.wire(a, b);
    a.start();
    b.start();
    s.run();

    if (delivered < 2 || last <= first)
        return 0;
    return (delivered - 1) * msgBytes * 8.0 /
        sim::toSeconds(last - first) / 1e6;
}

} // namespace

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "ablation_duplex");
    double full = bidirectionalMbps(true);
    double half = bidirectionalMbps(false);
    std::printf("Ablation: switched FE duplex mode "
                "(bidirectional 1400-byte stream)\n\n");
    std::printf("full duplex aggregate: %6.1f Mbit/s\n", full);
    std::printf("half duplex aggregate: %6.1f Mbit/s\n", half);
    std::printf("ratio:                 %6.2fx   (paper: full duplex "
                "\"doubles the aggregate network bandwidth\")\n",
                half > 0 ? full / half : 0.0);
    return 0;
}
