/**
 * @file
 * Figure 6: one-way bandwidth vs message size for U-Net/FE (hub and
 * Bay 28115 switch) and U-Net/ATM (140 Mbps TAXI).
 *
 * Paper anchors: Fast Ethernet saturates around 96-97 Mbps for
 * messages of 1 KB and up; ATM reaches ~118 Mbps against the 120 Mbps
 * effective ceiling of the TAXI link; the ATM curve is jagged because
 * payloads are quantized into 48-byte cells.
 */

#include <vector>

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "fig6_bandwidth");

    std::vector<std::size_t> sizes = {8,    16,   32,   40,  48,  64,
                                      88,   96,   128,  136, 192, 256,
                                      344,  384,  512,  680, 768, 1024,
                                      1200, 1344, 1494};

    const Fabric fabrics[] = {Fabric::FeHub, Fabric::FeBay,
                              Fabric::AtmTaxi};

    std::printf("Figure 6: bandwidth (Mbit/s) vs message size\n");
    std::printf("%8s", "bytes");
    for (Fabric f : fabrics)
        std::printf(" %14s", fabricName(f));
    std::printf("\n");

    for (std::size_t size : sizes) {
        std::printf("%8zu", size);
        for (Fabric f : fabrics)
            std::printf(" %14.1f", bandwidthMbps(f, size));
        std::printf("\n");
    }

    std::printf("\nanchors (paper -> measured):\n");
    std::printf("  FE @1KB+   ~96-97 Mbps -> %6.1f\n",
                bandwidthMbps(Fabric::FeBay, 1494));
    std::printf("  ATM @1.5KB ~118 Mbps   -> %6.1f  (120 Mbps TAXI "
                "ceiling)\n",
                bandwidthMbps(Fabric::AtmTaxi, 1494));
    return 0;
}
