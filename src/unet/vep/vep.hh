/**
 * @file
 * Endpoint virtualization: paged NIC endpoint state with an LRU hot set.
 *
 * The paper caps U-Net endpoints at what fits in NIC memory (the
 * PCA-200 carries ~256KB; U-Net/FE burns one byte of port space per
 * endpoint). OpenURMA identifies exactly this per-connection NIC state
 * as the dominant scaling bottleneck in modern RDMA and fixes it by
 * decoupling connection state from the NIC. This subsystem is the
 * analogue for both U-Net substrates:
 *
 *  - an id-keyed EndpointTable owns every endpoint on a U-Net
 *    instance. Endpoints are either *materialized* (rings and buffer
 *    area allocated, traffic-capable) or *cold registrations* — a
 *    compact record proving the id exists, cheap enough to hold a
 *    million of (the scaling-curve tail);
 *
 *  - a per-NIC ResidencyCache decides which materialized endpoints'
 *    state sits "in NIC memory" right now. The hot set is bounded by a
 *    spec knob; a send doorbell or receive demux that touches a
 *    non-resident endpoint pays a modeled page-in latency (charged
 *    through the same cost discipline as every other knob), evicting
 *    the least-recently-touched unpinned endpoint to make room.
 *
 * Eviction safety: an endpoint with in-flight custody — a DC21140 ring
 * slot referencing its buffer area, an i960 mid-segmentation or
 * mid-reassembly — is *pinned* and never a victim. Evicting a pinned
 * endpoint is a model bug and panics.
 *
 * Determinism: LRU order is a monotone logical touch-sequence counter,
 * never an address or a wall clock, so victim choice is bit-identical
 * under every perturbation salt.
 */

#ifndef UNET_UNET_VEP_VEP_HH
#define UNET_UNET_VEP_VEP_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/access.hh"
#include "obs/metrics.hh"
#include "sim/simulation.hh"
#include "unet/endpoint.hh"

namespace unet::vep {

/** Sizing and cost knobs for one NIC's residency cache. */
struct VepSpec
{
    /**
     * Endpoints resident in NIC memory at once. The default is sized
     * from today's limits — larger than any fixed-endpoint rig in the
     * tree (the biggest is the serve rig's fan-in plus one), so a
     * configuration that never asks for more endpoints than a real
     * NIC held is fully resident and pays zero fault cost on a
     * byte-identical fast path.
     */
    std::size_t hotCapacity = 256;

    /**
     * Cost of paging one endpoint's NIC state in from host memory on a
     * demux/doorbell miss (descriptor block DMA + table fix-up),
     * charged to whoever hit the miss: the trap/interrupt handler on
     * U-Net/FE, the i960 on U-Net/ATM.
     */
    sim::Tick pageInLatency = sim::microseconds(25);

    /** Cost of writing the victim's state back to host memory. */
    sim::Tick pageOutLatency = sim::microseconds(8);
};

/**
 * Id-keyed owner of every endpoint on one U-Net instance.
 *
 * Ids are dense and stable (slot index, assigned at registration).
 * A slot is one of: cold (registered, no Endpoint object — its state
 * notionally lives paged out in host memory), materialized (live
 * Endpoint), or destroyed (id retired, never reused).
 */
class EndpointTable
{
  public:
    /** Materialize an endpoint and take ownership. */
    Endpoint &create(sim::Simulation &sim, host::Memory &memory,
                     const EndpointConfig &config,
                     const sim::Process *owner);

    /**
     * Register an endpoint id without materializing it (the cold tier:
     * a compact record, no rings, no buffer area). Scaling experiments
     * register the 1→10^6 tail this way.
     */
    std::size_t registerCold();

    /** Pre-size the slot vectors for @p n upcoming registrations. */
    void reserve(std::size_t n);

    /** The endpoint behind @p id, or nullptr when cold/destroyed. */
    Endpoint *
    get(std::size_t id) const
    {
        _guard.observe("demux lookup");
        return id < _slots.size() ? _slots[id].get() : nullptr;
    }

    /** Retire @p id: destroys the Endpoint if materialized. */
    void destroy(std::size_t id);

    bool
    known(std::size_t id) const
    {
        return id < _states.size() &&
               _states[id] != State::destroyed;
    }

    /** Ids ever issued (cold + materialized + destroyed). */
    std::size_t size() const { return _slots.size(); }
    /** Live Endpoint objects. */
    std::size_t materialized() const { return _materialized; }
    /** Cold registrations outstanding. */
    std::size_t cold() const { return _cold; }

    /** Shardability instrumentation over the slot/state vectors. */
    check::ContextGuard &guard() { return _guard; }

  private:
    enum class State : std::uint8_t { cold, live, destroyed };

    std::vector<std::unique_ptr<Endpoint>> _slots;   // hb-guarded(_guard)
    std::vector<State> _states;                      // hb-guarded(_guard)
    std::size_t _materialized = 0;                   // hb-guarded(_guard)
    std::size_t _cold = 0;                           // hb-guarded(_guard)

    /** Custody/HB instrumentation for the table (create, cold
     *  registration, destroy, demux lookups). */
    check::ContextGuard _guard{"endpoint table"};
};

/**
 * Per-NIC LRU hot set of endpoint ids resident "in NIC memory".
 *
 * touch() is the single fast-path entry: it returns the fault cost the
 * caller must charge (zero on a hit — the resident path is
 * byte-identical to the pre-virtualization code). pin()/unpin() bracket
 * in-flight custody windows; pinned endpoints are never victims.
 */
class ResidencyCache
{
  public:
    /**
     * @param sim           Simulation (metrics registry).
     * @param spec          Capacity and fault costs.
     * @param metric_prefix Registry prefix, e.g. "host.a.unet.vep"
     *                      (made unique internally).
     */
    ResidencyCache(sim::Simulation &sim, const VepSpec &spec,
                   const std::string &metric_prefix);

    const VepSpec &spec() const { return _spec; }

    /**
     * Record a fast-path access to @p id. On a hit returns 0; on a
     * miss makes @p id resident — evicting the least-recently-touched
     * unpinned endpoint when the hot set is full — and returns the
     * page-in (+ page-out on eviction) cost for the caller to charge.
     */
    sim::Tick touch(std::size_t id);

    /**
     * Make @p id resident without counting a fault or returning a
     * cost: endpoint creation pre-loads the state it just built, the
     * way the driver pre-posts the RX ring at boot. Still evicts the
     * LRU unpinned resident when the hot set is full.
     */
    void warm(std::size_t id);

    bool
    resident(std::size_t id) const
    {
        return id < _entries.size() && _entries[id].resident;
    }

    /**
     * Open an in-flight custody window on @p id (must be resident):
     * the endpoint cannot be evicted until the matching unpin(). Pins
     * nest.
     */
    void pin(std::size_t id);
    void unpin(std::size_t id);

    /** Evict @p id now (panics if pinned); no-op when not resident. */
    void evict(std::size_t id);

    /** Forget @p id entirely (endpoint destroyed; panics if pinned). */
    void remove(std::size_t id);

    std::size_t residentCount() const { return _resident.size(); }
    std::size_t pinnedCount() const { return _pinnedCount; }
    std::uint64_t faults() const { return _faults.value(); }
    std::uint64_t evictions() const { return _evictions.value(); }
    std::uint64_t hits() const { return _hits.value(); }

    /**
     * Order-independent digest of (id, touch-sequence, pinned,
     * resident) for every resident entry — model-checker configs mix
     * this so two schedules with different hot-set contents never
     * collapse into one explored state.
     */
    std::uint64_t stateHash() const;

    /** Shardability instrumentation over the hot-set state. */
    check::ContextGuard &guard() { return _guard; }

  private:
    struct Entry
    {
        std::uint64_t lastTouch = 0;
        std::uint32_t pins = 0;
        bool resident = false;
    };

    Entry &entryFor(std::size_t id);

    /** Insert @p id into the hot set. @return true if a victim was
     *  evicted to make room. */
    bool insertResident(Entry &e, std::size_t id);

    VepSpec _spec;                        // hb-exempt(const after ctor)
    std::vector<Entry> _entries;          // hb-guarded(_guard)
    /** Resident ids, unordered; eviction min-scans lastTouch. */
    std::vector<std::size_t> _resident;   // hb-guarded(_guard)
    std::uint64_t _touchSeq = 0;          // hb-guarded(_guard)
    std::size_t _pinnedCount = 0;         // hb-guarded(_guard)

    sim::Counter _faults;                 // hb-exempt(commutative metrics sink)
    sim::Counter _evictions;              // hb-exempt(commutative metrics sink)
    sim::Counter _hits;                   // hb-exempt(commutative metrics sink)

    obs::MetricGroup _metrics;            // hb-exempt(registration RAII)

    /** Custody/HB instrumentation for the hot set (touch, warm, pin,
     *  evict — the paths the parallel plan must keep shard-local). */
    check::ContextGuard _guard{"endpoint residency cache"};
};

} // namespace unet::vep

#endif // UNET_UNET_VEP_VEP_HH
