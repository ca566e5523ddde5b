/**
 * @file
 * Ablation: IPv4 encapsulation of U-Net/FE messages.
 *
 * The paper's scalability discussion: Ethernet MAC+port tags cannot
 * cross IP routers; "one solution would be to use a simple IPv4
 * encapsulation for U-Net messages; however, this would add
 * considerable communication overhead." This bench quantifies that
 * overhead: 20 header bytes per frame plus kernel header/checksum
 * work on both sides.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "ablation_ipv4");
    RigOptions ipv4;
    ipv4.feSpec.ipv4Encapsulation = true;

    std::printf("Ablation: IPv4 encapsulation overhead "
                "(U-Net/FE, Bay 28115)\n\n");
    std::printf("%8s | %11s %11s %8s | %11s %11s\n", "bytes",
                "RTT raw", "RTT ipv4", "delta", "BW raw", "BW ipv4");
    for (std::size_t size : {8, 40, 128, 512, 1024, 1400}) {
        double rtt_raw = roundTripUs(Fabric::FeBay, size);
        double rtt_v4 = roundTripUs(Fabric::FeBay, size, 8, ipv4);
        double bw_raw = bandwidthMbps(Fabric::FeBay, size, 300);
        double bw_v4 = bandwidthMbps(Fabric::FeBay, size, 300, ipv4);
        std::printf("%8zu | %9.1fus %9.1fus %7.1f%% | %9.1fMb %9.1fMb\n",
                    size, rtt_raw, rtt_v4,
                    (rtt_v4 - rtt_raw) / rtt_raw * 100, bw_raw, bw_v4);
    }
    return 0;
}
