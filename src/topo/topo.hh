/**
 * @file
 * Topology builder: hosts, NICs and fabrics, wired in one place.
 *
 * The paper's two U-Net implementations differ only below the U-Net
 * interface: a DC21140 driven by an in-kernel U-Net, or a PCA-200 whose
 * i960 firmware is the U-Net. A node is a host plus one of those
 * stacks. A Net owns one fabric, adds nodes in order, connects
 * endpoints whatever the NIC, and arms a fault plan on every component;
 * a third NIC backend plugs in here.
 */

#ifndef UNET_TOPO_TOPO_HH
#define UNET_TOPO_TOPO_HH

#include <memory>
#include <string>
#include <vector>

#include "atm/switch.hh"
#include "eth/hub.hh"
#include "eth/link.hh"
#include "eth/switch.hh"
#include "fault/fault.hh"
#include "unet/unet_atm.hh"
#include "unet/unet_fe.hh"

namespace unet::topo {

/** Per-node hardware and driver settings. */
struct NodeSpec
{
    host::CpuSpec cpu = host::CpuSpec::pentium120();
    host::BusSpec bus = host::BusSpec::pci();
    UNetFeSpec fe{};                           ///< FE nodes
    atm::LinkSpec link = atm::LinkSpec::oc3(); ///< ATM nodes
    nic::Pca200Spec pca{};                     ///< ATM nodes
};

/** One Fast Ethernet node: host + DC21140 + in-kernel U-Net. */
struct FeNode
{
    FeNode(sim::Simulation &s, eth::Network &net, std::string name,
           std::uint32_t mac_index, const NodeSpec &spec = {});

    /** Host "node<index>" at MAC index @p index + 1. */
    FeNode(sim::Simulation &s, eth::Network &net, int index,
           const NodeSpec &spec = {});

    host::Host host;
    nic::Dc21140 nic;
    UNetFe unet;
};

/** One ATM node: host + its own link + PCA-200 + U-Net/ATM. The
 *  adapter attaches first, so link direction 0 is the node's. */
struct AtmNode
{
    AtmNode(sim::Simulation &s, std::string name,
            const NodeSpec &spec = {});

    /** Host "node<index>". */
    AtmNode(sim::Simulation &s, int index, const NodeSpec &spec = {});

    host::Host host;
    atm::AtmLink link;
    nic::Pca200 nic;
    UNetAtm unet;
};

/** The fabric a Net's nodes hang off. */
enum class FabricKind {
    Hub,    ///< FE repeater hub
    Switch, ///< FE switch
    Link,   ///< one full-duplex FE segment (two nodes)
    Atm,    ///< ASX-200 cell switch with signalling
};

/**
 * One fabric and its nodes, indexed in the order added. FE node i
 * takes MAC index i + 1; ATM node i its own link and the next switch
 * port.
 */
class Net
{
  public:
    /** @p sw configures FabricKind::Switch. */
    Net(sim::Simulation &s, FabricKind kind,
        const eth::SwitchSpec &sw = eth::SwitchSpec::bay28115());
    ~Net();

    Net(const Net &) = delete;
    Net &operator=(const Net &) = delete;

    /** Build host @p name and its NIC stack. @return its index. */
    std::size_t add(std::string name, const NodeSpec &spec = {});

    bool isAtm() const { return kind == FabricKind::Atm; }
    host::Host &host(std::size_t i);
    UNet &unet(std::size_t i);

    /** Node @p i's endpoint hot set: the U-Net/FE kernel's, or the
     *  PCA-200 firmware's. */
    vep::ResidencyCache &residency(std::size_t i);

    AtmNode &atm(std::size_t i) { return *nodes.at(i).atm; }
    atm::Switch &atmSwitch() { return *_atmSwitch; }

    /** Open a channel between @p ep_a on node @p a and @p ep_b on node
     *  @p b: U-Net/FE tags, or an ATM VC from the switch's
     *  signalling. */
    void connect(std::size_t a, Endpoint &ep_a, std::size_t b,
                 Endpoint &ep_b, ChannelId &chan_a, ChannelId &chan_b);

    /**
     * Arm @p plan on every component: the fabric under its bare site
     * name, node i's NIC and link under tag @p tags[i] (the rule in
     * fault/attach.hh).
     */
    void attachFaults(fault::Plan &plan,
                      const std::vector<std::string> &tags);

  private:
    /** Exactly one of fe/atm is set, per the fabric. */
    struct Node
    {
        std::unique_ptr<FeNode> fe;
        std::unique_ptr<AtmNode> atm;
        std::size_t port = 0; ///< ATM switch port
    };

    sim::Simulation &s;
    FabricKind kind;
    std::unique_ptr<eth::Hub> hub;
    std::unique_ptr<eth::Switch> ethSwitch;
    std::unique_ptr<eth::FullDuplexLink> link;
    eth::Network *ethNet = nullptr; ///< whichever of the three is set
    std::unique_ptr<atm::Switch> _atmSwitch;
    std::unique_ptr<atm::Signalling> signalling;
    std::vector<Node> nodes;
};

} // namespace unet::topo

#endif // UNET_TOPO_TOPO_HH
