/**
 * @file
 * Layer readings taken from outside the library: registry counters,
 * custody spans and the host-time split of the event loop.
 */

#include <algorithm>
#include <chrono>
#include <regex>
#include <string_view>

#include "sim/event.hh"
#include "workloads.hh"

namespace perfbench {

using namespace unet;

double
now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch())
        .count();
}

namespace {

bool
endsWith(std::string_view s, std::string_view tail)
{
    return s.size() >= tail.size() &&
           s.substr(s.size() - tail.size()) == tail;
}

/** Registry path (instance suffixes "#n" removed) -> layer metric. */
struct CounterRule
{
    std::string_view prefix;
    std::string_view suffix;
    const char *layer;
};

constexpr CounterRule counterRules[] = {
    {"host.", ".nic.dc21140.framesSent", "nic.frames_sent"},
    {"host.", ".nic.dc21140.rxMissed", "nic.rx_missed"},
    {"host.", ".nic.pca200.cellsSent", "nic.cells_sent"},
    {"host.", ".nic.pca200.fifoOverflows", "nic.fifo_overflows"},
    {"host.", ".nic.pca200.crcDrops", "nic.crc_drops"},
    {"eth.switch.", ".framesDropped", "eth.switch.frames_dropped"},
    {"eth.hub.", ".collisions", "eth.hub.collisions"},
    {"atm.switch.", ".cellsDropped", "atm.switch.cells_dropped"},
    {"unet.ep", ".rxQueueDrops", "unet.rx_queue_drops"},
    {"host.", ".unet.vep.faults", "unet.vep.faults"},
    {"host.", ".am.sent", "am.sent"},
    {"host.", ".am.received", "am.received"},
    {"host.", ".am.retransmits", "am.retransmits"},
    {"host.", ".am.duplicates", "am.duplicates"},
    {"fault.", ".dropped", "fault.dropped"},
};

std::string
stripInstance(const std::string &path)
{
    static const std::regex instance("#[0-9]+");
    return std::regex_replace(path, instance, "");
}

} // namespace

/**
 * Splits host time inside Simulation::run: fire-bracketed time is
 * spent in event callbacks, and the fiber share of it lies between a
 * fiber's resume and its suspend. Brackets are tracked by depth so a
 * nested bracket is not counted twice.
 */
class Probe::Observer : public sim::TaskObserver
{
  public:
    explicit Observer(HostSplit &split) : split(split) {}

    void onEventScheduled(std::uint64_t, sim::Tick, sim::Order) override {}
    void onEventCancelled(std::uint64_t) override {}

    void
    onEventFireBegin(std::uint64_t, sim::Tick, sim::Order) override
    {
        if (fireDepth++ == 0)
            fireStart = clock();
    }

    void
    onEventFireEnd(std::uint64_t) override
    {
        if (--fireDepth == 0)
            split.fireS += clock() - fireStart;
    }

    void
    onFiberResume(sim::Process &) override
    {
        ++split.resumes;
        if (fiberDepth++ == 0)
            fiberStart = clock();
    }

    void
    onFiberSuspend(sim::Process &) override
    {
        if (--fiberDepth == 0)
            split.fiberS += clock() - fiberStart;
    }

  private:
    static double clock() { return now(); }

    HostSplit &split;
    int fireDepth = 0;
    int fiberDepth = 0;
    double fireStart = 0;
    double fiberStart = 0;
};

Probe::Probe(Mode mode, Pass &pass)
    : _mode(mode), _pass(pass),
      _observer(mode == Mode::Profile ? std::make_unique<Observer>(pass.host)
                                      : nullptr)
{}

Probe::~Probe() = default;

void
Probe::attach(sim::Simulation &sim, std::size_t spans)
{
    if (_observer)
        sim.events().setTaskObserver(_observer.get());
    if (_mode == Mode::Trace)
        sim.enableTrace(spans);
}

std::uint64_t
Probe::collect(sim::Simulation &sim)
{
    sim::EventQueue &q = sim.events();
    _pass.events += q.firedCount();
    _pass.heapCallableAllocs += q.heapCallableAllocs();
    _pass.compactions += q.compactions();
    _pass.poolRecords = std::max<std::uint64_t>(_pass.poolRecords,
                                                q.poolCapacity());
    if (_observer)
        q.setTaskObserver(nullptr);

    obs::Digest digest;
    for (const auto &[path, value] : sim.metrics().dump()) {
        if (path.rfind("trace.", 0) == 0)
            continue; // present only when tracing; not a model output
        digest.mix(path).mix(value);
        std::string plain = stripInstance(path);
        for (const CounterRule &r : counterRules)
            if (plain.rfind(r.prefix, 0) == 0 && endsWith(plain, r.suffix))
                _pass.layers[r.layer] += value;
    }
    _pass.digest.mix(digest.value());

    obs::TraceSession *tr = sim.trace();
    if (!tr)
        return digest.value();
    Custody &c = _pass.custody;
    c.dropped += tr->dropped();
    std::vector<obs::Span> spans;
    spans.reserve(tr->size());
    tr->forEach([&](const obs::Span &s) {
        if (s.id == 0 || !obs::isCustody(s.kind))
            return;
        spans.push_back(s);
        c.durationsNs[obs::spanKindName(s.kind)].push_back(
            static_cast<double>(s.end - s.start) / 1000.0);
    });
    // Custody hand-offs partition a message's lifetime: each span must
    // start where the previous one ended. Hops are recorded in custody
    // order, so a stable sort by id keeps each message's sequence.
    // Spans the ring overwrote are a message's earliest, which leaves
    // the retained ones contiguous.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::Span &a, const obs::Span &b) {
                         return a.id < b.id;
                     });
    for (std::size_t i = 0; i < spans.size();) {
        std::size_t j = i + 1;
        bool tiled = true;
        for (; j < spans.size() && spans[j].id == spans[i].id; ++j)
            if (spans[j].start != spans[j - 1].end)
                tiled = false;
        ++c.messages;
        if (!tiled)
            ++c.untiled;
        i = j;
    }
    return digest.value();
}

} // namespace perfbench
