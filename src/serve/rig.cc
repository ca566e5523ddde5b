#include "serve/rig.hh"

#include <cstdio>
#include <numeric>

#include "sim/logging.hh"

namespace unet::serve {

namespace {

/** Server endpoint: deep queues for fan-in, a channel per client. */
EndpointConfig
serverEndpointConfig(int clients)
{
    EndpointConfig ep;
    ep.sendQueueDepth = 256;
    ep.recvQueueDepth = 256;
    ep.freeQueueDepth = 128;
    ep.maxChannels = static_cast<std::size_t>(clients) + 8;
    return ep;
}

/** The paper's switch has 16 ports; serving incast wants hundreds.
 *  Model a stacked deployment: same per-port behaviour, no port cap. */
eth::SwitchSpec
stackedBay()
{
    eth::SwitchSpec sw = eth::SwitchSpec::bay28115();
    sw.maxPorts = 0;
    return sw;
}

} // namespace

ServeRig::ServeRig(RigSpec s)
    : spec(std::move(s)), sim(spec.seed),
      net(sim,
          spec.nic == NicKind::Fe ? topo::FabricKind::Switch
                                  : topo::FabricKind::Atm,
          stackedBay()),
      plan(spec.faults.empty() ? fault::Plan{}
                               : fault::Plan::parse(spec.faults))
{
    if (spec.clients < 1)
        UNET_FATAL("serve rig needs at least one client");
    if (spec.methods.empty())
        UNET_FATAL("serve rig needs at least one method");

    // The server is node 0, client i node i + 1.
    topo::NodeSpec node;
    node.link = spec.atmLink;
    net.add("server", node);
    std::vector<std::string> tags{".s"};
    for (int i = 0; i < spec.clients; ++i) {
        // Distinct per-client ATM propagation delays (cable-length
        // spread): with every node sharing cell-time and firmware
        // quantization constants, identical delays would land
        // independent clients' cells on the switch at the same tick —
        // a physically arbitrary tie the perturbation auditor rightly
        // flags. A picosecond per port breaks every such tie without
        // measurable latency effect.
        node.link.propDelay = spec.atmLink.propDelay + i + 1;
        std::string name = "c";
        name += std::to_string(i);
        net.add(name, node);
        tags.push_back(std::string(".") + name);
    }
    net.attachFaults(plan, tags);

    // Processes, endpoints, RPC layers.
    sim::Process &serverProc =
        *procs.emplace_back(std::make_unique<sim::Process>(
            sim, "server",
            [this](sim::Process &p) {
                _server->serve(p, [this] {
                    return finishedClients == spec.clients;
                });
                serverDone = true;
            },
            4 * 1024 * 1024));
    // Shard attribution for the happens-before auditor: the server
    // fiber's work belongs to the server host's shard.
    serverProc.bindShardDomain(net.host(0).name());
    serverOs = std::make_unique<OsService>(net.unet(0), spec.osLimits);
    serverEp = serverOs->createEndpoint(
        serverProc, serverEndpointConfig(spec.clients));
    if (!serverEp)
        UNET_FATAL("serve rig: OS service denied the server endpoint");

    _stats = std::make_unique<ServeStats>(
        sim.metrics(), spec.methods.size(), spec.slo);
    _server = std::make_unique<RpcServer>(net.unet(0), *serverEp,
                                          spec.serverAm, spec.seed);
    for (const MethodSpec &m : spec.methods)
        _server->addMethod(m);

    for (int i = 0; i < spec.clients; ++i) {
        ClientNode &node =
            *clients.emplace_back(std::make_unique<ClientNode>());
        procs.push_back(std::make_unique<sim::Process>(
            sim, "client" + std::to_string(i),
            [this, i](sim::Process &p) { clientBody(p, i); },
            512 * 1024));
        sim::Process &proc = *procs.back();
        proc.bindShardDomain(net.host(i + 1).name());
        node.os = std::make_unique<OsService>(net.unet(i + 1),
                                              spec.osLimits);
        node.endpoint = node.os->createEndpoint(proc, {});
        if (!node.endpoint)
            UNET_FATAL("serve rig: OS service denied client endpoint ",
                       i);
    }

    // Channels: each client to the server.
    for (int i = 0; i < spec.clients; ++i) {
        ClientNode &node = *clients[i];
        ChannelId at_server = invalidChannel;
        net.connect(i + 1, *node.endpoint, 0, *serverEp, node.toServer,
                    at_server);
        _server->openChannel(at_server);
        node.rpc = std::make_unique<RpcClient>(
            net.unet(i + 1), *node.endpoint, node.toServer,
            static_cast<std::uint32_t>(i), *_stats, spec.clientAm);
    }
}

ServeRig::~ServeRig() = default;

void
ServeRig::clientBody(sim::Process &p, int i)
{
    ClientNode &n = *clients[static_cast<std::size_t>(i)];
    GenParams params;
    params.clientIndex = static_cast<std::uint32_t>(i);
    params.stride = static_cast<std::uint32_t>(spec.clients);
    params.seed = spec.seed;
    params.methods.resize(spec.methods.size());
    std::iota(params.methods.begin(), params.methods.end(), MethodId{0});
    params.requestBytes = spec.requestBytes;
    params.completionTimeout = workload.completionTimeout;

    if (workload.closedLoop) {
        ClosedLoopSpec cl;
        cl.requests = workload.requestsPerClient;
        cl.window = workload.window;
        cl.meanThink = workload.meanThink;
        runClosedLoop(p, *n.rpc, params, cl);
    } else {
        OpenLoopSpec ol;
        ol.requests = workload.requestsPerClient;
        ol.meanGap = workload.meanGap;
        runOpenLoop(p, *n.rpc, params, ol);
    }
    ++finishedClients;
    // Two-phase shutdown: keep polling (ACKing the server's drain-phase
    // retransmits) until the server finished its own drain. A client
    // that exits first turns one lost final ACK into a dead channel.
    n.rpc->am().pollUntil(
        p, [this] { return serverDone; }, sim::seconds(10));
}

RunResult
ServeRig::run(const Workload &w)
{
    start(w);
    if (spec.simTimeLimit > 0)
        sim.runUntil(started + spec.simTimeLimit);
    else
        sim.run();
    return result();
}

void
ServeRig::start(const Workload &w)
{
    if (ran)
        UNET_FATAL("a ServeRig runs one workload; build another");
    ran = true;
    workload = w;

    started = sim.now();
    procs[0]->start(sim::microseconds(1));
    // Distinct start ticks: no two client fibers ever share a
    // scheduling tick at startup (perturbation hygiene).
    for (int i = 0; i < spec.clients; ++i)
        procs[static_cast<std::size_t>(i) + 1]->start(
            sim::microseconds(10) + i);
}

RunResult
ServeRig::result() const
{
    RunResult r;
    r.finished = true;
    for (auto &proc : procs)
        r.finished = r.finished && proc->finished();
    if (!r.finished) {
        std::fprintf(stderr,
                     "serve rig did not quiesce (%d/%d clients, "
                     "server finished=%d):\n",
                     finishedClients, spec.clients,
                     procs[0]->finished() ? 1 : 0);
        std::fprintf(
            stderr, "  server: served=%llu retx=%llu rxDrops=%llu\n",
            static_cast<unsigned long long>(_server->served()),
            static_cast<unsigned long long>(
                _server->am().retransmits()),
            static_cast<unsigned long long>(
                serverEp->rxQueueDrops()));
        for (std::size_t i = 0; i < clients.size(); ++i) {
            const sim::Process &proc = *procs[i + 1];
            const ClientNode &node = *clients[i];
            if (proc.finished())
                continue;
            std::fprintf(
                stderr,
                "  %s: outstanding=%zu completions=%llu retx=%llu\n",
                proc.name().c_str(), node.rpc->outstanding(),
                static_cast<unsigned long long>(
                    node.rpc->completions()),
                static_cast<unsigned long long>(
                    node.rpc->am().retransmits()));
        }
    }

    for (auto &node : clients)
        r.clientRetransmits += node->rpc->am().retransmits();
    // Makespan ends at the last *completion*: the post-run drain and
    // ACK grace are protocol housekeeping, not served load.
    sim::Tick last = _stats->lastCompletion();
    r.makespan = last > started ? last - started : 0;

    r.issued = _stats->issued();
    r.completed = _stats->completed();
    r.dupResponses = _stats->dupResponses();
    r.issuedLate = _stats->issuedLate();
    r.giveUps = _stats->giveUps();
    r.sloViolations = _stats->sloViolations();
    r.served = _server->served();
    r.serverRetransmits = _server->am().retransmits();
    r.serverRxQueueDrops = serverEp->rxQueueDrops();

    r.p50Us = _stats->latencyNs().quantile(0.50) / 1000.0;
    r.p99Us = _stats->latencyNs().quantile(0.99) / 1000.0;
    r.p999Us = _stats->latencyNs().quantile(0.999) / 1000.0;
    if (!workload.closedLoop) {
        // Open loop: the offered-load horizon is the natural goodput
        // denominator — completed equals issued exactly when the plane
        // keeps up, and the ratio to offered load reads directly.
        // (Makespan would fold in the straggler tail of the slowest
        // client's Poisson stream.)
        sim::Tick horizon = static_cast<sim::Tick>(
                                workload.requestsPerClient) *
                            workload.meanGap;
        if (horizon > 0)
            r.goodputRps = static_cast<double>(r.completed) /
                           (static_cast<double>(horizon) * 1e-12);
    } else if (r.makespan > 0) {
        r.goodputRps = static_cast<double>(r.completed) /
                       (static_cast<double>(r.makespan) * 1e-12);
    }
    if (r.issued > 0)
        r.sloViolationRate = static_cast<double>(r.sloViolations) /
                             static_cast<double>(r.issued);
    return r;
}

} // namespace unet::serve
