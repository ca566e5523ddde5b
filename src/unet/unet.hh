/**
 * @file
 * The U-Net architecture interface.
 *
 * UNet "virtualizes the network interface in such a way that ... every
 * application [has] the illusion of owning the interface". The two
 * implementations (UNetFe, UNetAtm) expose the same operations; they
 * differ in who services the queues (kernel trap handler vs NIC
 * firmware) and in what the doorbell costs the host processor.
 */

#ifndef UNET_UNET_UNET_HH
#define UNET_UNET_UNET_HH

#include <memory>
#include <string>
#include <vector>

#include "host/host.hh"
#include "sim/stats.hh"
#include "unet/endpoint.hh"
#include "unet/types.hh"
#include "unet/vep/vep.hh"

namespace unet {

/** Abstract U-Net instance on one host. */
class UNet
{
  public:
    explicit UNet(host::Host &host) : _host(host)
    {
        _table.guard().setLabel(host.name() + ".eptable");
    }
    virtual ~UNet() = default;

    UNet(const UNet &) = delete;
    UNet &operator=(const UNet &) = delete;

    /** Implementation name for reporting. */
    virtual std::string name() const = 0;

    /** Largest message that can travel inline in a descriptor (the
     *  small-message optimization threshold of this substrate). */
    virtual std::size_t inlineMax() const = 0;

    /** Largest single U-Net message on this substrate. */
    virtual std::size_t maxMessageBytes() const = 0;

    /**
     * Create an endpoint owned by @p owner. Called via the OS service
     * (a system call); applications do not call this directly.
     */
    virtual Endpoint &createEndpoint(const sim::Process *owner,
                                     const EndpointConfig &config) = 0;

    /**
     * Destroy @p ep: the implementation tears down its NIC-side state
     * (port/VCI demux entries, residency) and the table retires the
     * id. Destroying an endpoint with in-flight custody (a device ring
     * slot or the firmware mid-message) is a model bug and panics.
     * Called via the OS service, like createEndpoint.
     */
    void
    destroyEndpoint(Endpoint &ep)
    {
        onDestroyEndpoint(ep);
        _table.destroy(ep.id());
    }

    /**
     * Post a send: push @p desc onto the endpoint's send queue and ring
     * the implementation's doorbell (fast trap / PIO store), charging
     * the calling process its share of processor time.
     *
     * @return false if the descriptor was rejected (full queue, invalid
     *         channel, or protection fault).
     */
    virtual bool send(sim::Process &proc, Endpoint &ep,
                      const SendDescriptor &desc) = 0;

    /**
     * Batched submission: post @p n descriptors onto the endpoint's
     * send queue and ring the doorbell ONCE for the whole batch, so
     * the fixed per-operation cost (trap or PIO doorbell, service
     * kick) is amortized over the batch.
     *
     * Semantics:
     *  - sendv with n == 1 takes the exact scalar send() path — it is
     *    trace- and digest-identical by construction;
     *  - descriptors are accepted in order and submission stops at the
     *    first rejection (full send queue, invalid channel);
     *  - posting more descriptors than the send queue can ever hold is
     *    a programming error and panics (the batch could never be
     *    accepted — the caller's batching is broken, not backpressured).
     *
     * @return the number of descriptors accepted (0..n).
     */
    virtual std::size_t sendv(sim::Process &proc, Endpoint &ep,
                              const SendDescriptor *descs,
                              std::size_t n) = 0;

    /**
     * Batched completion: drain up to @p max receive descriptors from
     * @p ep in one call (one custody window instead of max). The
     * batch=1 case is semantically identical to Endpoint::poll().
     * @return the number of descriptors written to @p out.
     */
    std::size_t
    pollv(Endpoint &ep, RecvDescriptor *out, std::size_t max)
    {
        return ep.pollv(out, max);
    }

    /**
     * Hand a receive buffer to the free queue.
     * @return false if the free queue is full.
     */
    virtual bool postFree(sim::Process &proc, Endpoint &ep,
                          BufferRef buf) = 0;

    /**
     * Re-kick the servicing agent for descriptors still sitting in the
     * send queue (e.g. after device-ring backpressure). A no-op when
     * the queue is already being drained autonomously.
     */
    virtual void flush(sim::Process &proc, Endpoint &ep) = 0;

    /**
     * Number of posted send descriptors whose payload bytes have NOT
     * yet been read out of the buffer area (still in the send queue or
     * in a device ring). While this is non-zero, an application must
     * not overwrite buffer-area regions referenced by posted
     * descriptors — the contract any zero-copy interface imposes.
     */
    virtual std::size_t txBacklog(const Endpoint &ep) const = 0;

    host::Host &host() { return _host; }

    /** Sends rejected because the caller does not own the endpoint. */
    std::uint64_t protectionFaults() const { return _protFaults.value(); }

    /** Every endpoint on this instance (materialized and cold). */
    vep::EndpointTable &table() { return _table; }
    const vep::EndpointTable &table() const { return _table; }

  protected:
    /** Implementation hook run before the table retires the id. */
    virtual void onDestroyEndpoint(Endpoint &ep) { (void)ep; }

    /** Owner check shared by implementations. */
    bool
    checkOwner(const sim::Process &proc, const Endpoint &ep)
    {
        if (ep.owner() != &proc) {
            ++_protFaults;
            return false;
        }
        return true;
    }

    host::Host &_host;
    vep::EndpointTable _table;
    sim::Counter _protFaults;
};

} // namespace unet

#endif // UNET_UNET_UNET_HH
