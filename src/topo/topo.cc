#include "topo/topo.hh"

#include "fault/attach.hh"
#include "sim/logging.hh"

namespace unet::topo {

FeNode::FeNode(sim::Simulation &s, eth::Network &net, std::string name,
               std::uint32_t mac_index, const NodeSpec &spec)
    : host(s, std::move(name), spec.cpu, spec.bus),
      nic(host, net, eth::MacAddress::fromIndex(mac_index)),
      unet(host, nic, spec.fe)
{}

FeNode::FeNode(sim::Simulation &s, eth::Network &net, int index,
               const NodeSpec &spec)
    : FeNode(s, net, "node" + std::to_string(index),
             static_cast<std::uint32_t>(index + 1), spec)
{}

AtmNode::AtmNode(sim::Simulation &s, std::string name,
                 const NodeSpec &spec)
    : host(s, std::move(name), spec.cpu, spec.bus), link(s, spec.link),
      nic(host, link, spec.pca), unet(host, nic)
{}

AtmNode::AtmNode(sim::Simulation &s, int index, const NodeSpec &spec)
    : AtmNode(s, "node" + std::to_string(index), spec)
{}

Net::Net(sim::Simulation &s, FabricKind kind, const eth::SwitchSpec &sw)
    : s(s), kind(kind)
{
    switch (kind) {
      case FabricKind::Hub:
        hub = std::make_unique<eth::Hub>(s);
        ethNet = hub.get();
        break;
      case FabricKind::Switch:
        ethSwitch = std::make_unique<eth::Switch>(s, sw);
        ethNet = ethSwitch.get();
        break;
      case FabricKind::Link:
        link = std::make_unique<eth::FullDuplexLink>(s);
        ethNet = link.get();
        break;
      case FabricKind::Atm:
        _atmSwitch = std::make_unique<atm::Switch>(s);
        signalling = std::make_unique<atm::Signalling>(*_atmSwitch);
        break;
    }
}

Net::~Net() = default;

std::size_t
Net::add(std::string name, const NodeSpec &spec)
{
    Node &node = nodes.emplace_back();
    if (isAtm()) {
        node.atm = std::make_unique<AtmNode>(s, std::move(name), spec);
        node.port = _atmSwitch->addPort(node.atm->link);
    } else {
        node.fe = std::make_unique<FeNode>(
            s, *ethNet, std::move(name),
            static_cast<std::uint32_t>(nodes.size()), spec);
    }
    return nodes.size() - 1;
}

host::Host &
Net::host(std::size_t i)
{
    Node &node = nodes.at(i);
    return node.fe ? node.fe->host : node.atm->host;
}

UNet &
Net::unet(std::size_t i)
{
    Node &node = nodes.at(i);
    if (node.fe)
        return node.fe->unet;
    return node.atm->unet;
}

vep::ResidencyCache &
Net::residency(std::size_t i)
{
    Node &node = nodes.at(i);
    return node.fe ? node.fe->unet.residency() : node.atm->nic.residency();
}

void
Net::connect(std::size_t a, Endpoint &ep_a, std::size_t b, Endpoint &ep_b,
             ChannelId &chan_a, ChannelId &chan_b)
{
    Node &na = nodes.at(a);
    Node &nb = nodes.at(b);
    if (isAtm())
        UNetAtm::connect(na.atm->unet, ep_a, na.port, nb.atm->unet, ep_b,
                         nb.port, *signalling, chan_a, chan_b);
    else
        UNetFe::connect(na.fe->unet, ep_a, nb.fe->unet, ep_b, chan_a,
                        chan_b);
}

void
Net::attachFaults(fault::Plan &plan, const std::vector<std::string> &tags)
{
    if (tags.size() != nodes.size())
        UNET_FATAL("fault tags for ", tags.size(), " of ", nodes.size(),
                   " nodes");
    if (hub)
        fault::attach(plan, s, *hub);
    if (ethSwitch)
        fault::attach(plan, s, *ethSwitch);
    if (link)
        fault::attach(plan, s, *link);
    if (_atmSwitch)
        fault::attach(plan, s, *_atmSwitch);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].fe) {
            fault::attach(plan, s, nodes[i].fe->nic, tags[i]);
        } else {
            fault::attach(plan, s, nodes[i].atm->link, tags[i]);
            fault::attach(plan, s, nodes[i].atm->nic, tags[i]);
        }
    }
}

} // namespace unet::topo
