#include "serve/loadgen.hh"

#include <deque>

#include "sim/logging.hh"
#include "sim/process.hh"

namespace unet::serve {

namespace {

/** Deterministic request payload: a function of (client, request). */
std::vector<std::uint8_t>
makePayload(std::uint32_t bytes, std::uint32_t client, int request)
{
    std::vector<std::uint8_t> p(bytes);
    for (std::uint32_t i = 0; i < bytes; ++i)
        p[i] = static_cast<std::uint8_t>(client * 7 + request * 3 + i);
    return p;
}

/** Poll the AM layer (handling responses and retransmits) until the
 *  intended tick @p when; no-op if it already passed. */
void
idleUntil(sim::Process &proc, RpcClient &client, sim::Tick when)
{
    sim::Tick current = proc.simulation().now();
    if (when > current)
        client.am().pollUntil(proc, [] { return false; },
                              when - current);
}

/** Retire the reliability tail shared by both disciplines: wait for
 *  stragglers, drain unACKed sends, then a short grace poll so the
 *  peer's final retransmits get their ACKs. */
bool
finish(sim::Process &proc, RpcClient &client, const GenParams &params)
{
    bool ok = client.awaitAll(proc, params.completionTimeout);
    client.am().drain(proc, sim::seconds(5));
    client.am().pollUntil(proc, [] { return false; },
                          sim::milliseconds(2));
    return ok;
}

} // namespace

bool
runOpenLoop(sim::Process &proc, RpcClient &client,
            const GenParams &params, const OpenLoopSpec &spec)
{
    sim::Random rng(clientSeed(params.seed, params.clientIndex));
    // The first arrival draws a gap too: starting every client at
    // params.start would open the run with a synchronized incast burst
    // instead of a Poisson stream.
    sim::Tick next =
        alignToResidue(params.start + rng.exponentialTicks(spec.meanGap),
                       params.stride, params.clientIndex);

    for (int i = 0; i < spec.requests; ++i) {
        auto payload =
            makePayload(params.requestBytes, params.clientIndex, i);
        MethodId method =
            params.methods[static_cast<std::size_t>(i) %
                           params.methods.size()];

        idleUntil(proc, client, next);
        // A few hundred ns of poll cost past the intended tick is the
        // measurement working as designed; "late" means a real stall
        // (window full, retransmit wait) pushed the issue off schedule.
        if (proc.simulation().now() > next + sim::microseconds(1))
            client.serveStats().countLate();
        // The epoch is the *intended* arrival even when we are late:
        // open-loop latency includes client-side queueing delay. A dead
        // channel still retires its window, so every issued request
        // ends completed or given up.
        if (!client.issue(proc, method, next, payload)) {
            finish(proc, client, params);
            return false;
        }

        next = alignToResidue(next + rng.exponentialTicks(spec.meanGap),
                              params.stride, params.clientIndex);
    }

    return finish(proc, client, params);
}

bool
runClosedLoop(sim::Process &proc, RpcClient &client,
              const GenParams &params, const ClosedLoopSpec &spec)
{
    sim::Random rng(clientSeed(params.seed, params.clientIndex));

    // Ticks at which a window slot becomes ready to issue again.
    std::deque<sim::Tick> ready;
    auto think = [&](sim::Tick from) {
        return alignToResidue(from + rng.exponentialTicks(
                                         std::max<sim::Tick>(
                                             spec.meanThink, 1)),
                              params.stride, params.clientIndex);
    };

    client.onComplete = [&](MethodId, sim::Tick completed) {
        ready.push_back(think(completed));
    };

    // Stagger the initial window by one think time each.
    sim::Tick t0 = params.start;
    for (int w = 0; w < spec.window; ++w) {
        t0 = think(t0);
        ready.push_back(t0);
    }

    bool ok = true;
    for (int i = 0; i < spec.requests; ++i) {
        if (!client.am().pollUntil(proc,
                                   [&] { return !ready.empty(); },
                                   params.completionTimeout)) {
            // A completion never arrived to refill the window.
            ok = false;
            break;
        }
        sim::Tick slot = ready.front();
        ready.pop_front();

        idleUntil(proc, client, slot);
        if (proc.simulation().now() > slot + sim::microseconds(1))
            client.serveStats().countLate();

        auto payload =
            makePayload(params.requestBytes, params.clientIndex, i);
        MethodId method =
            params.methods[static_cast<std::size_t>(i) %
                           params.methods.size()];
        if (!client.issue(proc, method, slot, payload)) {
            ok = false;
            break;
        }
    }

    bool drained = finish(proc, client, params);
    // onComplete captures this frame's deque; disarm before returning.
    client.onComplete = nullptr;
    return ok && drained;
}

} // namespace unet::serve
