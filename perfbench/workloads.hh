/**
 * @file
 * The benchmark's four workloads and what one pass of each records.
 *
 * A pass builds every rig the workload needs, runs it, reads the
 * simulated outputs and layer counters, and tears the rig down, timing
 * each of the three steps on the host clock from outside the library.
 * Nothing here reaches inside src/: rigs are driven through their
 * constructors, run() entry points and destructors, and layers are read
 * through the metrics registry, the trace session and a TaskObserver.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/digest.hh"
#include "sim/simulation.hh"

namespace perfbench {

/** How a pass is observed. */
enum class Mode {
    Plain,   ///< nothing attached: the end-to-end measurement
    Profile, ///< a TaskObserver splits host time into core/callback/fiber
    Trace,   ///< a TraceSession records custody spans
};

/** Problem sizes; smoke() shrinks every workload to a fraction of a
 *  second. */
struct Scale
{
    int incastClients = 256;
    int incastRequests = 100000;
    int sweepRequestsPerPoint = 10000;
    std::size_t rsortKeysPerNode = 65536;
    int rttRounds = 1500;
    /** Messages per bandwidth stream, as bench/fig6_bandwidth sends.
     *  Longer streams only lengthen the TAXI receive-FIFO overrun, so a
     *  point is lengthened by repeating its stream instead. */
    int bwMessages = 400;
    int bwRepeats = 3;

    static Scale
    smoke()
    {
        Scale s;
        s.incastClients = 16;
        s.incastRequests = 800;
        s.sweepRequestsPerPoint = 64;
        s.rsortKeysPerNode = 512;
        s.rttRounds = 4;
        s.bwMessages = 40;
        s.bwRepeats = 1;
        return s;
    }
};

/** Per-custody-kind span durations (ns) and the tiling audit. */
struct Custody
{
    std::map<std::string, std::vector<double>> durationsNs;
    std::uint64_t messages = 0;  ///< traced messages audited
    std::uint64_t untiled = 0;   ///< messages whose spans leave a gap
    std::uint64_t dropped = 0;   ///< spans the ring overwrote
    std::uint64_t rounds = 0;    ///< rawnet rounds audited against RTT
    std::uint64_t roundMismatches = 0;
};

/** Host-clock accounting from the TaskObserver. */
struct HostSplit
{
    double fireS = 0;   ///< inside event callbacks (fibers included)
    double fiberS = 0;  ///< between fiber resume and suspend
    std::uint64_t resumes = 0;
};

/** Everything one pass of a workload records. */
struct Pass
{
    double setupS = 0;    ///< rig / cluster constructors
    double runS = 0;      ///< run() entry points
    double teardownS = 0; ///< destructors

    double simS = 0; ///< simulated seconds the workload covered

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Digest of every simulated output: the registry of each
     *  simulation (trace.* excluded) in order, plus model results. */
    unet::obs::Digest digest;

    /** Per-simulation digests of multi-rig workloads, by point name. */
    std::map<std::string, std::uint64_t> pointDigests;

    /** Simulated results printed by name (rpc_p99_us, rtt_fe_us, ...);
     *  `.n` siblings carry sample counts. */
    std::map<std::string, double> outputs;

    /** Layer counters summed over every simulation of the pass. */
    std::map<std::string, double> layers;

    /** Event-queue counters summed over every simulation. */
    std::uint64_t events = 0;
    std::uint64_t heapCallableAllocs = 0;
    std::uint64_t compactions = 0;
    std::uint64_t poolRecords = 0; ///< largest record slab of the pass

    HostSplit host;
    Custody custody;

    void fail(std::string why)
    {
        ++failed;
        failures.push_back(std::move(why));
    }
};

/**
 * What a workload calls around each simulation it builds: attach()
 * after the rig exists and before it runs, collect() after the run and
 * before teardown.
 */
class Probe
{
  public:
    Probe(Mode mode, Pass &pass);
    ~Probe();

    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    /** @p spans sizes the trace ring (Trace mode): spans past it
     *  overwrite the oldest and are counted as dropped. */
    void attach(unet::sim::Simulation &sim, std::size_t spans);
    /** @return the digest of the simulation's registry (trace.*
     *  excluded), also folded into the pass digest. */
    std::uint64_t collect(unet::sim::Simulation &sim);

    Pass &pass() { return _pass; }

  private:
    class Observer;

    Mode _mode;
    Pass &_pass;
    std::unique_ptr<Observer> _observer;
};

using Workload = void (*)(std::uint64_t seed, const Scale &scale,
                          Probe &probe);

void serveIncast(std::uint64_t seed, const Scale &scale, Probe &probe);
void serveSweep(std::uint64_t seed, const Scale &scale, Probe &probe);
void splitcRsort(std::uint64_t seed, const Scale &scale, Probe &probe);
void rawnet(std::uint64_t seed, const Scale &scale, Probe &probe);

/** Host seconds since an arbitrary epoch (steady clock). */
double now();

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
