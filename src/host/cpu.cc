#include "host/cpu.hh"

#include "sim/logging.hh"

namespace unet::host {

Cpu::Cpu(sim::Simulation &sim, CpuSpec spec, std::string name)
    : sim(sim), _spec(std::move(spec)), _name(std::move(name))
{
}

void
Cpu::busy(sim::Process &proc, sim::Tick work)
{
    if (work < 0)
        UNET_PANIC("negative busy() on ", _name);
    if (computing)
        UNET_PANIC("two processes computing at once on ", _name,
                   " (single-CPU hosts only)");

    _userTime += work;
    if (work == 0)
        return;

    computing = &proc;
    computeEnd = sim.now() + work;
    // If kernel work is in flight right now, it pushes us back too.
    if (kernelBusyUntil > sim.now())
        computeEnd += kernelBusyUntil - sim.now();

    // Sleep until the (possibly moving) completion point.
    while (sim.now() < computeEnd)
        proc.delay(computeEnd - sim.now());

    computing = nullptr;
}

sim::Tick
Cpu::chargeKernel(sim::Tick cost)
{
    if (cost < 0)
        UNET_PANIC("negative kernel work on ", _name);

    sim::Tick start = std::max(sim.now(), kernelBusyUntil);
    kernelBusyUntil = start + cost;
    _kernelTime += cost;
    ++_kernelRuns;

    // Steal cycles from any in-flight user computation.
    if (computing)
        computeEnd += cost;
    return kernelBusyUntil;
}

} // namespace unet::host
