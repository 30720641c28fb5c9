/**
 * @file
 * The switched fabric connecting RNIC ports.
 *
 * Ports register under a Local IDentifier (LID). send() schedules delivery
 * after the link latency plus serialization delay; packets addressed to an
 * unknown LID vanish silently, exactly the failure mode the paper exploits
 * to measure transport timeouts (Sec. IV-B). Capture taps observe every
 * packet at egress (like ibdump on the sending HCA port) including packets
 * that are subsequently dropped.
 */

#ifndef IBSIM_NET_FABRIC_HH
#define IBSIM_NET_FABRIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "net/fault_hook.hh"
#include "net/loss.hh"
#include "net/packet.hh"
#include "net/packet_pool.hh"
#include "simcore/cross_channel.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/sharded_kernel.hh"

namespace ibsim {
namespace net {

/**
 * Administrative state of a port (IBA PortState, reduced to what the
 * simulation distinguishes). `Flapping` is an annotation meaning "this
 * port's links carry an active flap schedule"; it gates nothing — only
 * `Down` stops traffic.
 */
enum class PortState : std::uint8_t
{
    Up,
    Down,
    Flapping,
};

/**
 * A port/path event raised by the fabric toward the attached RNIC — the
 * simulation's equivalent of an IBV_EVENT_PORT_ERR/PORT_ACTIVE async
 * event. Path events are per-peer (one mesh link went down/up); port
 * events cover the whole port.
 */
struct PortEvent
{
    enum class Type : std::uint8_t
    {
        PortUp,
        PortDown,
        PathUp,    ///< link to `peerLid` recovered
        PathDown,  ///< link to `peerLid` cut
    };

    Type type = Type::PortDown;
    std::uint16_t lid = 0;      ///< the port the event is delivered to
    std::uint16_t peerLid = 0;  ///< far end of the link (path events)

    /**
     * True when, at event time, the subnet still has another up link out
     * of this port — i.e. an SM-style reroute around the cut is possible.
     */
    bool redundantPath = false;
};

/**
 * Receiver interface implemented by RNICs.
 */
class PortHandler
{
  public:
    virtual ~PortHandler() = default;

    /** A packet has arrived at this port. */
    virtual void receive(const Packet& pkt) = 0;

    /** An async port/path event for this port (default: ignored). */
    virtual void portEvent(const PortEvent& ev) { (void)ev; }
};

/** Static link parameters of the fabric. */
struct LinkConfig
{
    /** One-way propagation + switching latency. */
    Time latency = Time::us(0.9);

    /** Link bandwidth in bytes per second (56 Gb/s FDR by default). */
    double bandwidthBytesPerSec = 56e9 / 8.0;

    /** Per-packet host/NIC processing overhead added to delivery time. */
    Time perPacketOverhead = Time::ns(50);
};

/**
 * Observer invoked for every packet handed to the fabric (before loss).
 */
using CaptureTap = std::function<void(const Packet&, bool dropped)>;

/**
 * The fabric: LID-addressed delivery with latency, serialization and loss.
 *
 * Two execution modes share the routing tables:
 *
 *  - Single-queue (default): every delivery is scheduled on the one
 *    EventQueue passed at construction — the historical path, untouched
 *    by island mode and pinned by the repo's traceHash goldens.
 *
 *  - Island mode (enableSharding()): each LID belongs to an island of a
 *    ShardedKernel and the fabric keeps one Lane per island — its own
 *    wire-id space, RNG fork, PacketPool, fault hook and outbound
 *    channels. Same-island packets take the inline path on the island's
 *    queue; cross-island packets become Parcels in per-(src, dst)
 *    CrossChannels keyed by their *effect* time (earliest arrival plus
 *    the per-packet overhead — the first event they can schedule). The
 *    destination island drains every channel up to its window horizon
 *    before running the window, merging parcels in (arrival, wire-id)
 *    order and applying the destination port's ingress serialization
 *    max-chain; the kernel's pairwise channel clocks guarantee every
 *    parcel at or below the horizon is already visible (DESIGN.md
 *    §12.b), so there is no global barrier anywhere on the path. Both
 *    the egress and ingress busy-times of a port are only ever touched
 *    by that port's island. A cross-island packet is written once, at
 *    egress, into a slot of the sending lane's PacketPool; the parcel
 *    carries only the slot, and the delivery reads the packet in place
 *    and returns the slot to that pool. Both lanes lie in one connected
 *    component of the edge graph, which one worker runs per round, so
 *    the pool and the channels need no locks (DESIGN.md §12.f). The
 *    fabric forwards each connection's route
 *    to the kernel's edge graph (declareRoute(); UD-capable islands
 *    declare dense edges), which is what lets distant islands run
 *    windows without synchronizing. Loss models and fault hooks shared
 *    across lanes would race at jobs > 1 — use setIslandFaultHook()
 *    (chaos::ChaosEngine::installSharded() does) and stateless loss
 *    models only.
 */
class Fabric : public ShardedKernel::BarrierAgent
{
  public:
    Fabric(EventQueue& events, Rng& rng, LinkConfig config = {});

    /** Register @p handler under @p lid. LIDs must be unique. */
    void attach(std::uint16_t lid, PortHandler& handler);

    /** Remove a port (packets to it then vanish). */
    void detach(std::uint16_t lid);

    /**
     * Send a packet. Ownership of the contents transfers; the fabric stamps
     * wireId/sentAt. Returns the wire id (0 if the packet was dropped by a
     * loss model or addressed to an unknown LID — it still got a wire id
     * for capture purposes; 0 is never used).
     */
    std::uint64_t send(Packet&& pkt);

    /**
     * Install a loss model (replaces the previous one).
     *
     * Compatibility shim: the loss model is stage zero of the fault
     * pipeline — it is consulted before the FaultHook, with the fabric's
     * RNG, exactly as it was before the chaos engine existed, so
     * MatchOnceLoss / BernoulliLoss users keep their packet-for-packet
     * behaviour. New fault classes belong in a chaos::FaultInjector stage
     * (chaos::LossModelStage adapts a LossModel into one).
     */
    void setLossModel(std::unique_ptr<LossModel> model);

    /**
     * Install the fault-injection hook (non-owning; nullptr uninstalls).
     * Consulted after the legacy loss stage for every surviving packet.
     */
    void setFaultHook(FaultHook* hook) { hook_ = hook; }

    /** Add a capture tap observing all traffic. */
    void addTap(CaptureTap tap);

    /** @{ Port events and link state (see DESIGN.md §13).
     *
     * Link-down windows gate traffic at *egress*: a packet sent while
     * the (src, dst) link is down is dropped at the sending port (taps
     * see it with dropped = true), unless the sending QP was rerouted
     * (Packet::rerouted), in which case it passes and is charged one
     * extra hop of latency for the detour. Packets already past egress
     * when a link cuts still arrive — cutting a link does not vaporize
     * in-flight photons. In island mode every island keeps its own
     * replica of link state (setLaneLinkState()), toggled by its own
     * scheduled events, so egress decisions never read foreign-island
     * state. Port `Down` state additionally gates ingress at the
     * destination port (island-owned there too).
     */

    /** Administrative port state (setup/test API; `Down` gates traffic). */
    void setPortState(std::uint16_t lid, PortState state);

    PortState
    portState(std::uint16_t lid) const
    {
        return lid < ports_.size() ? ports_[lid].state : PortState::Up;
    }

    /** Deliver an async event to the handler attached at @p lid. */
    void raisePortEvent(std::uint16_t lid, const PortEvent& ev);

    /** Single-queue mode: toggle the {a, b} link. */
    void setLinkState(std::uint16_t a, std::uint16_t b, bool up);

    /** Island mode: toggle @p island's replica of the {a, b} link. */
    void setLaneLinkState(std::size_t island, std::uint16_t a,
                          std::uint16_t b, bool up);

    /** Whether @p island's view of the {a, b} link is down. */
    bool laneLinkDown(std::size_t island, std::uint16_t a,
                      std::uint16_t b) const;

    /** Packets dropped by port/link-down gates (subset of totalDropped). */
    std::uint64_t totalPortEventDrops() const;

    /** @} */

    /**
     * Whether a port is attached under @p lid — the dense PortRecord
     * table bounds check. Egress paths that pre-address packets (UD
     * datagrams) consult this to account would-be silent drops.
     */
    bool
    attached(std::uint16_t lid) const
    {
        return lid < ports_.size() && ports_[lid].handler != nullptr;
    }

    /** Total packets handed to send(). */
    std::uint64_t totalSent() const;

    /** Total packets actually delivered. */
    std::uint64_t totalDelivered() const;

    /** Total packets dropped (loss model, fault hook or unknown LID). */
    std::uint64_t totalDropped() const;

    /** Extra packets materialized by the fault hook (dups, forged NAKs). */
    std::uint64_t totalInjected() const;

    const LinkConfig& config() const { return config_; }

    EventQueue& events() { return events_; }

    /** In-flight packet pool usage (capacity planning / tests). */
    const PacketPool& packetPool() const { return pool_; }

    /** Island mode: the pool holding @p island's in-flight egress. */
    const PacketPool&
    lanePool(std::size_t island) const
    {
        return lanes_[island].pool;
    }

    /** @{ Island mode (see the class comment). */

    /**
     * Switch into island mode over @p kernel. Call before any lane or
     * LID exists; registers the fabric as a BarrierAgent.
     */
    void enableSharding(ShardedKernel& kernel);

    bool sharded() const { return kernel_ != nullptr; }

    ShardedKernel* shardedKernel() { return kernel_; }

    /**
     * Create the lane mirroring the kernel island of the same index
     * (@p rng_seed forks the lane-private RNG). Returns the lane index,
     * which must equal the kernel's island index.
     */
    std::size_t addIslandLane(std::uint64_t rng_seed);

    /** Assign @p lid to @p island (setup time, before traffic). */
    void assignLid(std::uint16_t lid, std::size_t island);

    /** Island owning @p lid; 0 when unsharded or unassigned. */
    std::size_t islandOf(std::uint16_t lid) const;

    /** Islands in the fabric (1 when unsharded). */
    std::size_t
    islandCount() const
    {
        return sharded() ? lanes_.size() : 1;
    }

    /**
     * The island executing the current send — valid inside capture taps
     * and receive handlers; 0 when unsharded. Forged packets carry fake
     * source LIDs, so taps must key per-island state on this, not on
     * islandOf(pkt.srcLid).
     */
    std::size_t egressIsland() const;

    /** Island @p island's queue (the single queue when unsharded). */
    EventQueue& islandEvents(std::size_t island);

    /** Per-island fault hook (island mode; nullptr uninstalls). */
    void setIslandFaultHook(std::size_t island, FaultHook* hook);

    /**
     * Declare to the kernel's edge graph that traffic flows between the
     * islands of the two LIDs, both directions (requests one way, ACKs
     * back). An unassigned destination LID (a timeout experiment's
     * vanishing peer) declares nothing — its packets drop at egress. A
     * no-op when unsharded. rnic::Rnic calls this on every connect.
     */
    void declareRoute(std::uint16_t src_lid, std::uint16_t dst_lid);

    /**
     * Declare dense edges for @p island — the sound fallback for
     * islands whose destinations are not known at setup (a UD QP names
     * its destination per work request).
     */
    void declareDenseIsland(std::size_t island);

    /** BarrierAgent: inject parcels for @p island with effect
     * <= @p horizon, in (arrival, wire-id) merge order. */
    std::uint64_t flushInbound(std::size_t island, Time now,
                               Time horizon) override;

    /** BarrierAgent: earliest buffered parcel effect for @p island. */
    Time inboundEarliest(std::size_t island) override;

    /** BarrierAgent: buffered parcels bound for @p island. */
    std::size_t inboundPending(std::size_t island) override;

    /** @} */

  private:
    /** Schedule one pipeline output of send() (single-queue mode). */
    void deliver(Packet&& pkt, Time extra_delay);

    /**
     * Run @p hook over @p pkt and pass each delivery's packet to
     * @p emit(index, Packet&&, extra delay), in pipeline order. The
     * delivery still borrowing @p pkt gets @p pkt itself, moved; only
     * packets a stage changed or made were ever copied. Returns false
     * (leaving @p pkt untouched) when the hook dropped the packet.
     */
    template <typename Emit>
    static bool runHook(FaultHook& hook,
                        std::vector<FaultHook::Delivery>& spare,
                        Packet& pkt, Time now, Emit&& emit);

    /**
     * Per-LID state of the datapath, one cache line per hop: the
     * attached handler plus the egress/ingress link-busy times that used
     * to live in two extra std::maps. LIDs are small, fabric-assigned
     * integers, so the table is a dense vector indexed by LID — the
     * per-packet lookups in send()/deliver() are two array indexings
     * instead of three red-black-tree walks. Detaching a port clears
     * only the handler; the link-busy times survive re-attachment,
     * exactly like the old always-growing std::map entries did.
     */
    struct PortRecord
    {
        PortHandler* handler = nullptr;
        /** Egress link of this LID is serializing until then. */
        Time egressFreeAt;
        /** Ingress link of this LID is serializing until then. */
        Time ingressFreeAt;
        /** Administrative state; only Down gates traffic. */
        PortState state = PortState::Up;
    };

    /** The record for @p lid, growing the table on first touch. */
    PortRecord& port(std::uint16_t lid);

    /**
     * @{ Island-mode datapath. A Parcel is a packet in a cross-island
     * channel, by reference: the packet itself sits in slot `slot` of
     * lane `lane`'s pool, written once at egress. arrive0 is its
     * earliest ingress arrival (egress serialization, latency and chaos
     * delay already applied by the source island); the destination
     * island applies its ingress max-chain when it drains the channel,
     * merging parcels from every source lane in (arrive0, wireId) order
     * — a strict total order, because wire ids are unique. Channels are
     * CrossChannels keyed by the parcel's effect time (arrive0 +
     * perPacketOverhead, the first event it can schedule), which is what
     * a drain's horizon threshold compares against.
     */
    struct Parcel
    {
        Time arrive0;
        Time serialization;
        std::uint64_t wireId;
        std::uint32_t lane;  ///< lane whose pool holds the packet
        std::uint32_t slot;  ///< slot in that pool
    };
    static_assert(sizeof(Parcel) == 32, "a parcel is a slot reference");

    struct Lane
    {
        Lane(EventQueue* ev, std::uint64_t rng_seed)
            : events(ev), rng(rng_seed)
        {}

        EventQueue* events;
        Rng rng;
        PacketPool pool;
        FaultHook* hook = nullptr;
        std::uint64_t nextWireId = 1;
        std::uint64_t sent = 0;
        std::uint64_t delivered = 0;
        std::uint64_t dropped = 0;
        std::uint64_t injected = 0;
        std::uint64_t portEventDrops = 0;
        /** Island-local replica of down links (keys from linkKey()). */
        std::vector<std::uint32_t> downLinks;
        /** Outbound channels, one per destination island. */
        std::vector<CrossChannel<Parcel>> out;
        std::vector<Parcel> inbox;  ///< drain merge scratch
        std::vector<FaultHook::Delivery> hookOut;  ///< fault-hook scratch
    };

    std::uint64_t sendSharded(Packet&& pkt);
    void deliverSharded(std::size_t lane_index, Packet&& pkt,
                        Time extra_delay);
    void finalizeIngress(std::size_t dst_island, const Parcel& parcel);
    /** @} */

    static std::uint32_t
    linkKey(std::uint16_t a, std::uint16_t b)
    {
        const std::uint16_t lo = a < b ? a : b;
        const std::uint16_t hi = a < b ? b : a;
        return (static_cast<std::uint32_t>(lo) << 16) | hi;
    }

    static void setLinkDown(std::vector<std::uint32_t>& set,
                            std::uint32_t key, bool down);

    /**
     * Egress gate: src-port-Down and link-down checks, applied to
     * genuine endpoint packets before the fault pipeline. Returns false
     * to drop; sets @p detour to the reroute penalty otherwise.
     */
    bool egressAdmits(const std::vector<std::uint32_t>& down_links,
                      const Packet& pkt, Time* detour) const;

    EventQueue& events_;
    Rng& rng_;
    LinkConfig config_;
    std::vector<PortRecord> ports_;
    std::unique_ptr<LossModel> loss_;
    FaultHook* hook_ = nullptr;
    std::vector<FaultHook::Delivery> hookOut_;  ///< fault-hook scratch
    /**
     * In-flight packets parked between send() and delivery. Delivery
     * callbacks capture only the slot index, so they stay within the
     * event kernel's inline-callback capacity (no allocation per hop) and
     * payload buffers are recycled across packets.
     */
    PacketPool pool_;
    std::vector<CaptureTap> taps_;
    std::uint64_t nextWireId_ = 1;
    std::uint64_t totalSent_ = 0;
    std::uint64_t totalDelivered_ = 0;
    std::uint64_t totalDropped_ = 0;
    std::uint64_t totalInjected_ = 0;
    std::uint64_t portEventDrops_ = 0;
    /** Single-queue down-link set (island mode uses Lane::downLinks). */
    std::vector<std::uint32_t> downLinks_;

    /** @{ Island mode. lanes_ is a deque: stable Lane addresses. */
    ShardedKernel* kernel_ = nullptr;
    std::deque<Lane> lanes_;
    std::vector<std::size_t> islandOfLid_;
    /** @} */
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_FABRIC_HH
