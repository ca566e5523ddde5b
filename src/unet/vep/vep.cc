#include "unet/vep/vep.hh"

#include "sim/logging.hh"

namespace unet::vep {

Endpoint &
EndpointTable::create(sim::Simulation &sim, host::Memory &memory,
                      const EndpointConfig &config,
                      const sim::Process *owner)
{
    _guard.mutate("materialize endpoint");
    const std::size_t id = _slots.size();
    _slots.push_back(std::make_unique<Endpoint>(sim, memory, config,
                                                owner, id));
    _states.push_back(State::live);
    ++_materialized;
    return *_slots.back();
}

std::size_t
EndpointTable::registerCold()
{
    _guard.mutate("register cold endpoint");
    const std::size_t id = _slots.size();
    _slots.emplace_back();
    _states.push_back(State::cold);
    ++_cold;
    return id;
}

void
EndpointTable::reserve(std::size_t n)
{
    _slots.reserve(_slots.size() + n);
    _states.reserve(_states.size() + n);
}

void
EndpointTable::destroy(std::size_t id)
{
    _guard.mutate("destroy endpoint");
    if (id >= _states.size() || _states[id] == State::destroyed)
        UNET_FATAL("destroying unknown endpoint id ", id);
    if (_states[id] == State::live) {
        _slots[id].reset();
        --_materialized;
    } else {
        --_cold;
    }
    _states[id] = State::destroyed;
}

ResidencyCache::ResidencyCache(sim::Simulation &sim, const VepSpec &spec,
                               const std::string &metric_prefix)
    : _spec(spec),
      _metrics(sim.metrics(), sim.metrics().uniquePrefix(metric_prefix))
{
    // The unique metric prefix doubles as the shardability-report
    // label: instance-distinct and already host-scoped by convention.
    _guard.setLabel(_metrics.prefix());
    if (_spec.hotCapacity == 0)
        UNET_FATAL("residency cache needs room for at least one "
                   "endpoint");
    _metrics.counter("faults", _faults);
    _metrics.counter("evictions", _evictions);
    _metrics.counter("hits", _hits);
    _metrics.gauge("resident", [this] {
        return static_cast<double>(_resident.size());
    });
    _metrics.gauge("pinned", [this] {
        return static_cast<double>(_pinnedCount);
    });
}

ResidencyCache::Entry &
ResidencyCache::entryFor(std::size_t id)
{
    if (id >= _entries.size())
        _entries.resize(id + 1);
    return _entries[id];
}

bool
ResidencyCache::insertResident(Entry &e, std::size_t id)
{
    bool evicted = false;
    if (_resident.size() >= _spec.hotCapacity) {
        // LRU victim: smallest logical touch sequence among unpinned
        // residents. A linear min-scan over a bounded hot set, ordered
        // by counters only — schedule- and address-invariant.
        std::size_t victim_pos = _resident.size();
        std::uint64_t victim_touch = 0;
        for (std::size_t i = 0; i < _resident.size(); ++i) {
            const Entry &cand = _entries[_resident[i]];
            if (cand.pins)
                continue;
            if (victim_pos == _resident.size() ||
                cand.lastTouch < victim_touch) {
                victim_pos = i;
                victim_touch = cand.lastTouch;
            }
        }
        if (victim_pos == _resident.size())
            UNET_FATAL("endpoint residency cache full of pinned "
                       "endpoints (capacity ", _spec.hotCapacity,
                       "): every resident endpoint has in-flight "
                       "custody");
        _entries[_resident[victim_pos]].resident = false;
        _resident[victim_pos] = _resident.back();
        _resident.pop_back();
        ++_evictions;
        evicted = true;
    }
    e.resident = true;
    _resident.push_back(id);
    return evicted;
}

sim::Tick
ResidencyCache::touch(std::size_t id)
{
    _guard.mutate("touch");
    Entry &e = entryFor(id);
    e.lastTouch = ++_touchSeq;
    if (e.resident) {
        ++_hits;
        return 0;
    }
    ++_faults;
    sim::Tick cost = _spec.pageInLatency;
    if (insertResident(e, id))
        cost += _spec.pageOutLatency;
    return cost;
}

void
ResidencyCache::warm(std::size_t id)
{
    _guard.mutate("warm");
    Entry &e = entryFor(id);
    e.lastTouch = ++_touchSeq;
    if (e.resident)
        return;
    insertResident(e, id);
}

void
ResidencyCache::pin(std::size_t id)
{
    _guard.mutate("pin");
    Entry &e = entryFor(id);
    if (!e.resident)
        UNET_PANIC("pinning non-resident endpoint ", id,
                   " (touch it first)");
    if (e.pins++ == 0)
        ++_pinnedCount;
}

void
ResidencyCache::unpin(std::size_t id)
{
    _guard.mutate("unpin");
    Entry &e = entryFor(id);
    if (e.pins == 0)
        UNET_PANIC("unpinning endpoint ", id, " with no pin held");
    if (--e.pins == 0)
        --_pinnedCount;
}

void
ResidencyCache::evict(std::size_t id)
{
    _guard.mutate("evict");
    if (id >= _entries.size() || !_entries[id].resident)
        return;
    if (_entries[id].pins)
        UNET_FATAL("evicting endpoint ", id,
                   " with in-flight custody (", _entries[id].pins,
                   " pins held)");
    _entries[id].resident = false;
    for (std::size_t i = 0; i < _resident.size(); ++i) {
        if (_resident[i] == id) {
            _resident[i] = _resident.back();
            _resident.pop_back();
            break;
        }
    }
    ++_evictions;
}

void
ResidencyCache::remove(std::size_t id)
{
    _guard.mutate("remove");
    if (id >= _entries.size())
        return;
    if (_entries[id].pins)
        UNET_FATAL("removing endpoint ", id,
                   " with in-flight custody (", _entries[id].pins,
                   " pins held)");
    if (_entries[id].resident) {
        for (std::size_t i = 0; i < _resident.size(); ++i) {
            if (_resident[i] == id) {
                _resident[i] = _resident.back();
                _resident.pop_back();
                break;
            }
        }
    }
    _entries[id] = Entry{};
}

std::uint64_t
ResidencyCache::stateHash() const
{
    _guard.observe("state hash sweep");
    // Commutative mix (sum of per-entry hashes): the _resident vector's
    // internal order is a swap-erase artifact, not model state.
    std::uint64_t h = 0x9e3779b97f4a7c15ULL * (_resident.size() + 1);
    for (std::size_t id : _resident) {
        const Entry &e = _entries[id];
        std::uint64_t z = id * 0xbf58476d1ce4e5b9ULL;
        z ^= e.lastTouch + 0x94d049bb133111ebULL * (e.pins + 1);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        h += z ^ (z >> 31);
    }
    return h;
}

} // namespace unet::vep
