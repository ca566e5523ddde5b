/**
 * @file
 * Host processor occupancy model.
 *
 * The CPU is a serial resource. Three kinds of work run on it:
 *
 *  - user computation, charged by a blocking Process via busy();
 *  - in-process kernel time (fast traps), also charged via busy();
 *  - asynchronous kernel work (interrupt handlers), submitted with
 *    runKernel() and serialized against other kernel work.
 *
 * Interrupt handlers steal cycles from whatever process computation is in
 * flight: an in-progress busy() is extended by the handler's cost. This
 * reproduces the paper's central U-Net/FE trade-off — low latency at the
 * price of host processor utilization during receives.
 */

#ifndef UNET_HOST_CPU_HH
#define UNET_HOST_CPU_HH

#include <cstddef>
#include <string>
#include <utility>

#include "host/cpu_spec.hh"
#include "sim/process.hh"
#include "sim/simulation.hh"
#include "sim/stats.hh"

namespace unet::host {

/** A host processor instance. */
class Cpu
{
  public:
    Cpu(sim::Simulation &sim, CpuSpec spec, std::string name);

    const CpuSpec &spec() const { return _spec; }
    const std::string &name() const { return _name; }

    /**
     * Charge @p work ticks of processor time to the calling process,
     * blocking it. If interrupt handlers run meanwhile, the completion
     * point moves back by their cost.
     */
    void busy(sim::Process &proc, sim::Tick work);

    /**
     * Submit asynchronous kernel work (an interrupt handler body) of the
     * given cost. Kernel work is serialized: a second handler waits for
     * the first. @p on_done fires when the work completes; any effects
     * of the handler (queue updates, wakeups) belong there. It is
     * forwarded to Simulation::schedule as is, so a callable that fits
     * an event record's 64 inline bytes costs no allocation.
     */
    template <typename F>
    void
    runKernel(sim::Tick cost, F &&on_done)
    {
        sim.schedule(chargeKernel(cost), std::forward<F>(on_done));
    }

    /** Kernel work with no completion action. */
    void runKernel(sim::Tick cost, std::nullptr_t) { chargeKernel(cost); }

    /** True if kernel work is executing or queued right now. */
    bool kernelBusy() const { return sim.now() < kernelBusyUntil; }

    /** @name Statistics. @{ */
    sim::Tick userTime() const { return _userTime; }
    sim::Tick kernelTime() const { return _kernelTime; }
    const sim::Counter &kernelRuns() const { return _kernelRuns; }
    /** @} */

  private:
    /** Queue @p cost of kernel work. @return when it completes. */
    sim::Tick chargeKernel(sim::Tick cost);

    sim::Simulation &sim;
    CpuSpec _spec;
    std::string _name;

    /** Completion fence for serialized kernel work. */
    sim::Tick kernelBusyUntil = 0;

    /** The process currently inside busy(), if any. */
    sim::Process *computing = nullptr;

    /** When the current busy() will finish (moves back on interrupts). */
    sim::Tick computeEnd = 0;

    sim::Tick _userTime = 0;
    sim::Tick _kernelTime = 0;
    sim::Counter _kernelRuns;
};

} // namespace unet::host

#endif // UNET_HOST_CPU_HH
