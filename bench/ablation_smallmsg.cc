/**
 * @file
 * Ablation: the small-message optimizations.
 *
 * U-Net/FE copies sub-64-byte messages straight into the receive
 * descriptor; U-Net/ATM special-cases single-cell receives. The paper
 * credits the FE path with ~15% receive-overhead savings and shows the
 * ATM single-cell/multi-cell cliff in Fig. 5. This bench measures
 * round-trip latency with each optimization on and off.
 */

#include "bench/harness.hh"

using namespace unet;
using namespace unet::bench;

int
main(int argc, char **argv)
{
    noArguments(argc, argv, "ablation_smallmsg");
    std::printf("Ablation: small-message receive optimizations "
                "(round-trip us)\n\n");

    RigOptions fe_off;
    fe_off.feSpec.smallMessageOptimization = false;
    std::printf("U-Net/FE (Bay 28115 switch)\n");
    std::printf("%8s %12s %12s %10s\n", "bytes", "opt on", "opt off",
                "delta");
    for (std::size_t size : {8, 16, 24, 32, 40, 48, 56, 63}) {
        double on = roundTripUs(Fabric::FeBay, size);
        double off = roundTripUs(Fabric::FeBay, size, 8, fe_off);
        std::printf("%8zu %12.1f %12.1f %9.1f%%\n", size, on, off,
                    (off - on) / on * 100);
    }

    RigOptions atm_off;
    atm_off.pcaSpec.singleCellOptimization = false;
    std::printf("\nU-Net/ATM (OC-3c, ASX-200)\n");
    std::printf("%8s %12s %12s %10s\n", "bytes", "opt on", "opt off",
                "delta");
    for (std::size_t size : {8, 16, 24, 32, 40}) {
        double on = roundTripUs(Fabric::AtmOc3, size);
        double off = roundTripUs(Fabric::AtmOc3, size, 8, atm_off);
        std::printf("%8zu %12.1f %12.1f %9.1f%%\n", size, on, off,
                    (off - on) / on * 100);
    }

    std::printf("\n(the paper's Fig. 5 cliff: the 44-byte ATM message "
                "pays the unoptimized path: %.1f us)\n",
                roundTripUs(Fabric::AtmOc3, 44));
    return 0;
}
