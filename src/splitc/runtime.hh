/**
 * @file
 * The Split-C runtime on one node.
 *
 * Implements the language's communication primitives over Active
 * Messages, as the paper's benchmarks used them:
 *
 *  - blocking read/write of remote memory (global-pointer dereference);
 *  - split-phase get/put completed by sync();
 *  - one-way store with global completion (all_store_sync);
 *  - barrier and small collectives (reductions, broadcast).
 *
 * Each node has a byte-addressable heap reachable from remote nodes.
 * SPMD programs allocate symmetrically — every node performs the same
 * allocations in the same order, so heap addresses agree across nodes
 * (the classic Split-C/SHMEM convention). The heap reads zero until
 * written (sim::MappedBuffer), so untouched megabytes cost nothing.
 *
 * Computation is charged explicitly through chargeFlops/chargeIntOps
 * using the host CPU's cost table (Pentium: fast integer; SPARC: fast
 * floating point), and the compute/communication split is recorded for
 * the Figure 7 breakdown.
 */

#ifndef UNET_SPLITC_RUNTIME_HH
#define UNET_SPLITC_RUNTIME_HH

#include <cstring>
#include <map>
#include <vector>

#include "am/active_messages.hh"
#include "check/access.hh"
#include "sim/pool.hh"
#include "splitc/global_ptr.hh"
#include "splitc/profile.hh"

namespace unet::splitc {

/** One node's Split-C runtime. */
class Runtime
{
  public:
    /**
     * @param unet       This node's U-Net instance.
     * @param ep         Endpoint dedicated to the runtime.
     * @param self       This node's rank.
     * @param nprocs     Cluster size.
     * @param heap_bytes Size of the remotely addressable heap.
     * @param am_spec    Active Message tuning.
     */
    Runtime(UNet &unet, Endpoint &ep, int self, int nprocs,
            std::size_t heap_bytes = 16 * 1024 * 1024,
            am::AmSpec am_spec = {});

    int self() const { return _self; }
    int procs() const { return _procs; }
    am::ActiveMessages &am() { return _am; }
    Profile &profile() { return _profile; }
    host::Host &host() { return unet.host(); }

    /** Wire the AM channel to @p peer (cluster construction). */
    void setChannel(int peer, ChannelId chan);

    /**
     * Bind custody of the runtime's shared state (heap, split-phase
     * counters, barrier ledger, scratch table) to the node's SPMD
     * process. Mutations from any other fiber then panic — they would
     * be another node reaching into this node's memory.
     */
    void bindOwner(const sim::Process *proc)
    {
        stateGuard.bindOwner(proc);
    }

    ChannelId channelTo(int peer) const;

    /** @name Symmetric heap. @{ */

    /** Allocate raw bytes; all nodes must allocate in lockstep. */
    HeapAddr allocBytes(std::size_t bytes, std::size_t align = 8);

    /** Allocate an array of T. */
    template <typename T>
    HeapAddr
    alloc(std::size_t count)
    {
        return allocBytes(count * sizeof(T), alignof(T));
    }

    /** Raw pointer into the local heap. */
    std::uint8_t *heapPtr(HeapAddr addr) { return heapAt(addr, 0); }

    /** Typed pointer into the local heap. */
    template <typename T>
    T *
    localPtr(HeapAddr addr)
    {
        return reinterpret_cast<T *>(heapAt(addr, 0));
    }

    /** @} */

    /** @name Blocking remote access (global-pointer dereference). @{ */

    void readBytes(sim::Process &proc, int node, HeapAddr addr,
                   std::span<std::uint8_t> out);
    void writeBytes(sim::Process &proc, int node, HeapAddr addr,
                    std::span<const std::uint8_t> data);

    template <typename T>
    T
    read(sim::Process &proc, GlobalPtr<T> ptr)
    {
        T value{};
        readBytes(proc, ptr.node, ptr.addr,
                  {reinterpret_cast<std::uint8_t *>(&value), sizeof(T)});
        return value;
    }

    template <typename T>
    void
    write(sim::Process &proc, GlobalPtr<T> ptr, const T &value)
    {
        writeBytes(proc, ptr.node, ptr.addr,
                   {reinterpret_cast<const std::uint8_t *>(&value),
                    sizeof(T)});
    }

    /** @} */

    /** @name Split-phase operations. @{ */

    /** Start fetching remote bytes into the local heap. */
    void get(sim::Process &proc, int node, HeapAddr remote_addr,
             HeapAddr local_addr, std::uint32_t len);

    /** Start pushing bytes to a remote heap (completion via sync). */
    void put(sim::Process &proc, int node, HeapAddr remote_addr,
             std::span<const std::uint8_t> data);

    /** Wait for all outstanding gets and puts of this node. */
    void sync(sim::Process &proc);

    /** @} */

    /** @name One-way stores with global completion. @{ */

    /** Fire-and-forget bulk store into a remote heap. */
    void storeTo(sim::Process &proc, int node, HeapAddr remote_addr,
                 std::span<const std::uint8_t> data);

    /** Global all_store_sync: all stores everywhere have landed. */
    void allStoreSync(sim::Process &proc);

    /** @} */

    /** @name Collectives. @{ */

    void barrier(sim::Process &proc);
    std::uint64_t allReduceSum(sim::Process &proc, std::uint64_t value);
    std::uint64_t allReduceMax(sim::Process &proc, std::uint64_t value);

    /** Element-wise sum of a uint64 vector across all nodes; every
     *  node ends with the global result in @p data. */
    void allReduceSumVec(sim::Process &proc, std::uint64_t *data,
                         std::size_t count);

    /** Replicate @p len bytes of @p root's heap at @p addr to the same
     *  address on every node. */
    void broadcastBytes(sim::Process &proc, int root, HeapAddr addr,
                        std::uint32_t len);

    /** @} */

    /** @name Application hooks. @{ */

    /** Register an application active-message handler. */
    am::HandlerId registerHandler(am::ActiveMessages::Handler fn);

    /** Send an application active message to @p peer (comm-timed). */
    bool
    requestTo(sim::Process &proc, int peer, am::HandlerId handler,
              const am::Args &args,
              std::span<const std::uint8_t> payload = {})
    {
        CommTimer t(*this);
        return _am.request(proc, channelTo(peer), handler, args,
                           payload);
    }

    /** Poll the network (call during long sends or waits). */
    void poll(sim::Process &proc) { _am.poll(proc); }

    /** Poll until @p pred holds. */
    bool
    pollUntil(sim::Process &proc, const std::function<bool()> &pred)
    {
        CommTimer t(*this);
        return _am.pollUntil(proc, pred);
    }

    /** @} */

    /** @name Computation charging (drives Table 1 / Fig. 7). @{ */

    void chargeFlops(sim::Process &proc, std::uint64_t n);
    void chargeIntOps(sim::Process &proc, std::uint64_t n);
    void chargeTime(sim::Process &proc, sim::Tick t);

    /** @} */

    /** RAII: attribute enclosed wall time to communication. */
    class CommTimer
    {
      public:
        explicit CommTimer(Runtime &rt)
            : rt(rt), start(rt.unet.host().simulation().now())
        {
            ++rt.commDepth;
        }

        ~CommTimer()
        {
            if (--rt.commDepth == 0)
                rt._profile.comm +=
                    rt.unet.host().simulation().now() - start;
        }

      private:
        Runtime &rt;
        sim::Tick start;
    };

  private:
    friend class CommTimer;

    std::uint8_t *heapAt(HeapAddr addr, std::size_t len);

    /** Lazily allocated, call-site-symmetric scratch regions. */
    HeapAddr scratchFor(const std::string &key, std::size_t bytes);

    UNet &unet;                 // hb-exempt(reference, set once)
    Endpoint &ep;               // hb-exempt(reference, set once)
    int _self;                  // hb-exempt(const after ctor)
    int _procs;                 // hb-exempt(const after ctor)
    am::ActiveMessages _am;     // hb-exempt(own per-channel custody)
    Profile _profile;           // hb-exempt(commutative metrics sink)

    sim::MappedBuffer heap;         // hb-guarded(stateGuard)
    std::size_t heapBrk = 0;        // hb-guarded(stateGuard)

    std::vector<ChannelId> channels; // hb-exempt(setup-time only)

    /** @name Reserved handler state. @{ */
    am::HandlerId hGetReq;      // hb-exempt(const after ctor)
    am::HandlerId hGetDone;     // hb-exempt(const after ctor)
    am::HandlerId hBarrier;     // hb-exempt(const after ctor)
    am::HandlerId nextHandler = 1; // hb-exempt(setup-time only)

    /** Bounce-buffer size for blocking reads. */
    static constexpr std::size_t readStageBytes = 256 * 1024;
    /** @} */

    std::uint64_t getsIssued = 0; // hb-guarded(stateGuard)
    std::uint64_t getsDone = 0;   // hb-guarded(stateGuard)

    std::uint64_t barrierEpoch = 0; // hb-guarded(stateGuard)
    // hb-guarded(stateGuard)
    std::map<std::pair<std::uint64_t, std::uint32_t>, int> barrierSeen;

    std::map<std::string, HeapAddr> scratch; // hb-guarded(stateGuard)
    int commDepth = 0;            // hb-guarded(stateGuard)

    /** Custody over heap/getsDone/barrierSeen/scratch: mutated by the
     *  node's own fiber directly and via AM handlers it polls. */
    check::ContextGuard stateGuard{"splitc runtime state"};
};

} // namespace unet::splitc

#endif // UNET_SPLITC_RUNTIME_HH
