/**
 * @file
 * One-call construction of the paper's experimental platforms.
 *
 * "The Fast Ethernet experimental platform consists of a cluster of one
 * 90 MHz and seven 120 MHz Pentium workstations running Linux and
 * connected by a Bay Networks 28115 16-port switch ... while the ATM
 * experimental platform consists of a cluster of 4 SPARCStation 20s and
 * 4 SPARCStation 10s ... connected by a Fore ASX-200 switch to a
 * 140 Mbps ATM network."
 *
 * A Cluster builds N hosts with their NICs, network fabric, U-Net
 * instances, endpoints, Active Messages, Split-C runtimes, and a full
 * mesh of channels, then runs an SPMD program on every node.
 */

#ifndef UNET_CLUSTER_CLUSTER_HH
#define UNET_CLUSTER_CLUSTER_HH

#include <functional>
#include <memory>
#include <vector>

#include "splitc/runtime.hh"
#include "topo/topo.hh"

namespace unet::cluster {

/** Which fabric connects the nodes. */
enum class NetKind {
    FeHub,      ///< 100BaseTX repeater hub (shared medium)
    FeBay28115, ///< Bay Networks 28115 16-port switch
    FeFn100,    ///< Cabletron FastNet-100 8-port switch
    Atm,        ///< FORE ASX-200 cell switch
};

/** Cluster recipe. */
struct Config
{
    NetKind net = NetKind::FeBay28115;
    int nodes = 2;

    /** Per-node CPUs; if fewer entries than nodes, the last repeats. */
    std::vector<host::CpuSpec> cpus{host::CpuSpec::pentium120()};

    host::BusSpec bus = host::BusSpec::pci();
    atm::LinkSpec atmLink = atm::LinkSpec::oc3();

    std::size_t heapBytes = 24 * 1024 * 1024;
    EndpointConfig endpoint = deepQueues();
    am::AmSpec am;

    /** SPMD meshes keep many channels busy at once; size the U-Net
     *  queues for the full-fan-in case. */
    static EndpointConfig
    deepQueues()
    {
        EndpointConfig ep;
        ep.sendQueueDepth = 256;
        ep.recvQueueDepth = 256;
        ep.freeQueueDepth = 128;
        return ep;
    }

    /** Fiber stack per node process. */
    std::size_t stackBytes = 4 * 1024 * 1024;

    /** Watchdog: abort the run (with per-node diagnostics) if the SPMD
     *  program has not finished after this much *simulated* time.
     *  0 disables the watchdog. */
    sim::Tick simTimeLimit = 0;

    /** The paper's FE cluster: one Pentium-90 plus Pentium-120s. */
    static Config feCluster(int nodes,
                            NetKind sw = NetKind::FeBay28115,
                            bool paper_hosts = true);

    /** The paper's Split-C ATM cluster: SS20s + SS10s, SBus SBA-200,
     *  140 Mbps TAXI, ASX-200. */
    static Config atmSplitC(int nodes, bool paper_hosts = true);
};

/** A fully wired cluster. */
class Cluster
{
  public:
    Cluster(sim::Simulation &sim, Config config);
    ~Cluster();

    Cluster(const Cluster &) = delete;
    Cluster &operator=(const Cluster &) = delete;

    int size() const { return config.nodes; }
    sim::Simulation &simulation() { return sim; }

    splitc::Runtime &runtime(int i) { return *nodes.at(i)->runtime; }
    host::Host &hostOf(int i) { return net.host(i); }
    UNet &unetOf(int i) { return net.unet(i); }

    /**
     * Run @p main as an SPMD program on every node. Can be called once
     * per cluster. @return simulated time from start to the last
     * node's completion.
     */
    sim::Tick
    run(std::function<void(splitc::Runtime &, sim::Process &)> main);

  private:
    /** Node i's SPMD side; its host and NIC are net's node i. */
    struct Node
    {
        Endpoint *endpoint = nullptr;
        std::unique_ptr<splitc::Runtime> runtime;
        std::unique_ptr<sim::Process> proc;
        sim::Tick finishedAt = 0;
    };

    sim::Simulation &sim;
    Config config;
    topo::Net net;

    std::vector<std::unique_ptr<Node>> nodes;
    std::function<void(splitc::Runtime &, sim::Process &)> mainFn;
    bool ran = false;
};

} // namespace unet::cluster

#endif // UNET_CLUSTER_CLUSTER_HH
