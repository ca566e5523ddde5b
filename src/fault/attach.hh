/**
 * @file
 * Convenience glue between a fault::Plan and the network components.
 *
 * Header-only so the fault library itself never depends on eth/atm/nic
 * (components only know the forward-declared Injector). Each helper
 * arms the plan for the component's canonical site name(s) and hands
 * the injector(s) to the component; a plan with no matching non-inert
 * model arms nothing and the component stays on its zero-cost path.
 *
 * Canonical site names (suffix wildcards in plans match these):
 *
 *   eth.link.<d>      FullDuplexLink, per direction (d = 0 for the
 *                     first-attached station's transmissions)
 *   eth.hub           Hub (one decision per transmitted frame)
 *   eth.switch        Switch (per egress-queued frame)
 *   atm.link.<d>      AtmLink, per direction
 *   atm.switch        atm::Switch ingress (per routed cell)
 *   nic.fe.rx         Dc21140 receive DMA (drop/corrupt only)
 *   nic.atm.rx        Pca200 receive path (drop/corrupt only)
 *
 * The one naming rule for multi-node rigs (topo::Net::attachFaults):
 * the fabric keeps its bare name; each node's NIC and link insert the
 * node's tag after the component name, before any direction —
 * attach(plan, sim, link, ".a") arms "atm.link.a.0" / "atm.link.a.1",
 * and a DC21140 tagged ".c3" arms "nic.fe.rx.c3". The benches' RawPair
 * tags its nodes ".a"/".b", the serving rig ".s" and ".c<i>".
 */

#ifndef UNET_FAULT_ATTACH_HH
#define UNET_FAULT_ATTACH_HH

#include <string>

#include "atm/link.hh"
#include "atm/switch.hh"
#include "eth/hub.hh"
#include "eth/link.hh"
#include "eth/switch.hh"
#include "fault/fault.hh"
#include "nic/dc21140.hh"
#include "nic/pca200.hh"

namespace unet::fault {

inline void
attach(Plan &plan, sim::Simulation &sim, eth::FullDuplexLink &link,
       const std::string &suffix = "")
{
    link.setFaultInjector(
        plan.arm(sim, "eth.link" + suffix + ".0"), 0);
    link.setFaultInjector(
        plan.arm(sim, "eth.link" + suffix + ".1"), 1);
}

inline void
attach(Plan &plan, sim::Simulation &sim, eth::Hub &hub,
       const std::string &suffix = "")
{
    hub.setFaultInjector(plan.arm(sim, "eth.hub" + suffix));
}

inline void
attach(Plan &plan, sim::Simulation &sim, eth::Switch &sw,
       const std::string &suffix = "")
{
    sw.setFaultInjector(plan.arm(sim, "eth.switch" + suffix));
}

inline void
attach(Plan &plan, sim::Simulation &sim, atm::AtmLink &link,
       const std::string &suffix = "")
{
    link.setFaultInjector(
        plan.arm(sim, "atm.link" + suffix + ".0"), 0);
    link.setFaultInjector(
        plan.arm(sim, "atm.link" + suffix + ".1"), 1);
}

inline void
attach(Plan &plan, sim::Simulation &sim, atm::Switch &sw,
       const std::string &suffix = "")
{
    sw.setFaultInjector(plan.arm(sim, "atm.switch" + suffix));
}

inline void
attach(Plan &plan, sim::Simulation &sim, nic::Dc21140 &nic,
       const std::string &suffix = "")
{
    nic.setRxFaultInjector(plan.arm(sim, "nic.fe.rx" + suffix));
}

inline void
attach(Plan &plan, sim::Simulation &sim, nic::Pca200 &nic,
       const std::string &suffix = "")
{
    nic.setRxFaultInjector(plan.arm(sim, "nic.atm.rx" + suffix));
}

} // namespace unet::fault

#endif // UNET_FAULT_ATTACH_HH
