/**
 * @file
 * ServeRig: N RPC clients fanning into one server across a simulated
 * fabric.
 *
 * The incast experiment the paper's microbenchmarks cannot express:
 * every client node is a full host + NIC + U-Net stack, the server is
 * one more, and all of them hang off the real switch model (Bay 28115
 * for Fast Ethernet, ASX-200 for ATM), so fan-in contention, switch
 * queueing, and — with a fault scenario armed — Gilbert-Elliott burst
 * loss shape the measured SLO curves exactly as they shape the
 * transport.
 *
 * One rig = one experiment: construct, run() once with a workload,
 * read the RunResult (or the metrics registry / digest for stability
 * checks), destroy.
 */

#ifndef UNET_SERVE_RIG_HH
#define UNET_SERVE_RIG_HH

#include <memory>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "serve/loadgen.hh"
#include "serve/rpc.hh"
#include "topo/topo.hh"
#include "unet/os_service.hh"

namespace unet::serve {

/** Which NIC/fabric pair carries the experiment. */
enum class NicKind { Fe, Atm };

inline const char *
nicName(NicKind nic)
{
    return nic == NicKind::Fe ? "FE" : "ATM";
}

/** Topology and service-model recipe (what the cluster *is*). */
struct RigSpec
{
    NicKind nic = NicKind::Fe;

    /** Client nodes (the server is one more). */
    int clients = 4;

    /** Experiment seed: client arrival streams, server service draws,
     *  and the fault plan all derive from it deterministically. */
    std::uint64_t seed = 1;

    /** Fault scenario string (fault::Plan grammar), "" = clean.
     *  Sites follow topo::Net::attachFaults: the switch is
     *  "eth.switch"/"atm.switch"; the server's NIC and link sites end
     *  in ".s" and client i's in ".c<i>" ("nic.fe.rx.c3",
     *  "atm.link.s.0", "nic.atm.rx.c0"). */
    std::string faults;

    /** Dispatch table; default one echo-like method (4us fixed + 2us
     *  exponential mean service). */
    std::vector<MethodSpec> methods{MethodSpec{}};

    /** Latency SLO for violation counting. */
    sim::Tick slo = sim::microseconds(400);

    /** Request payload bytes (<= 20 keeps requests single-cell). */
    std::uint32_t requestBytes = 16;

    /** Simulated-time watchdog for one run. */
    sim::Tick simTimeLimit = sim::seconds(30);

    am::AmSpec clientAm{};
    am::AmSpec serverAm = RpcServer::serverAmSpec();

    /** OS-service limits for every node. Endpoints are created through
     *  the OS service (boot-time, so the syscall cost is not charged);
     *  the channel ceiling is wide by default so the server endpoint
     *  can fan in past the stock 64-channel limit. */
    OsLimits osLimits{8, 4096};

    /** ATM rigs: per-node link (OC-3c, matching the PCA-200 rig). */
    atm::LinkSpec atmLink = atm::LinkSpec::oc3();
};

/** Client discipline and load (what the experiment *does*). */
struct Workload
{
    bool closedLoop = false;
    int requestsPerClient = 20;

    /** Open loop: mean per-client inter-arrival gap. Offered load in
     *  requests/sec = clients * 1e12 / meanGap. */
    sim::Tick meanGap = sim::microseconds(400);

    /** Closed loop: per-client window and mean think time. */
    int window = 1;
    sim::Tick meanThink = sim::microseconds(100);

    sim::Tick completionTimeout = sim::seconds(2);
};

/** What one run measured. */
struct RunResult
{
    /** All client and server fibers ran to completion before the
     *  watchdog. */
    bool finished = false;

    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t dupResponses = 0;
    std::uint64_t issuedLate = 0;
    std::uint64_t giveUps = 0;
    std::uint64_t sloViolations = 0;
    std::uint64_t served = 0;

    std::uint64_t clientRetransmits = 0;
    std::uint64_t serverRetransmits = 0;
    std::uint64_t serverRxQueueDrops = 0;

    /** First intended arrival to last completion-side quiesce. */
    sim::Tick makespan = 0;

    double p50Us = 0.0;
    double p99Us = 0.0;
    double p999Us = 0.0;

    /** Completions per second of makespan. */
    double goodputRps = 0.0;

    /** Violations / issued (the published SLO curve's y-axis). */
    double sloViolationRate = 0.0;
};

/** A fully wired serving cluster. */
class ServeRig
{
  public:
    explicit ServeRig(RigSpec spec);
    ~ServeRig();

    ServeRig(const ServeRig &) = delete;
    ServeRig &operator=(const ServeRig &) = delete;

    /** Run one workload to quiescence. Callable once per rig. */
    RunResult run(const Workload &w);

    /** run() in two halves, for a caller that owns the event loop:
     *  start() schedules the fibers, result() reads what they
     *  measured once the loop has drained. */
    void start(const Workload &w);
    RunResult result() const;

    sim::Simulation &simulation() { return sim; }
    obs::Registry &metrics() { return sim.metrics(); }
    ServeStats &stats() { return *_stats; }
    RpcServer &server() { return *_server; }

  private:
    /** Client i is node i + 1 of the net; the server is node 0. */
    struct ClientNode
    {
        std::unique_ptr<OsService> os;
        Endpoint *endpoint = nullptr;
        std::unique_ptr<RpcClient> rpc;
        ChannelId toServer = invalidChannel;
    };

    /** Client @p i's fiber: its load generator, then the shutdown
     *  linger. */
    void clientBody(sim::Process &p, int i);

    RigSpec spec;
    sim::Simulation sim;

    /** The fiber of net node i. */
    std::vector<std::unique_ptr<sim::Process>> procs;

    topo::Net net;

    std::unique_ptr<OsService> serverOs;
    Endpoint *serverEp = nullptr;

    std::unique_ptr<ServeStats> _stats;
    std::unique_ptr<RpcServer> _server;
    std::vector<std::unique_ptr<ClientNode>> clients;

    int finishedClients = 0;
    /** Set by the server fiber once serve() (incl. drain) returned;
     *  releases the clients' post-run linger. */
    bool serverDone = false;
    bool ran = false;
    Workload workload;
    sim::Tick started = 0;

    /** Last member: its injector metrics must unregister before the
     *  simulation's registry dies. */
    fault::Plan plan;
};

} // namespace unet::serve

#endif // UNET_SERVE_RIG_HH
