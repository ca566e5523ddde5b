/**
 * @file
 * Test rigs for the U-Net implementations: the topology builder's
 * nodes, an ATM star, and a recognizable payload.
 */

#ifndef UNET_TESTS_UNET_FIXTURES_HH
#define UNET_TESTS_UNET_FIXTURES_HH

#include <string>
#include <vector>

#include "bench/soak.hh"
#include "topo/topo.hh"

namespace unet::test {

using topo::AtmNode;
using topo::FeNode;

/** An ATM star: nodes "node0".."node<n-1>" around one ASX-200. */
struct AtmStar : topo::Net
{
    AtmStar(sim::Simulation &s, int n) : Net(s, topo::FabricKind::Atm)
    {
        for (int i = 0; i < n; ++i)
            add("node" + std::to_string(i));
    }

    AtmNode &operator[](std::size_t i) { return atm(i); }
};

using bench::pattern;

} // namespace unet::test

#endif // UNET_TESTS_UNET_FIXTURES_HH
