#include "net/fabric.hh"

#include <algorithm>
#include <cassert>
#include <utility>

#include "simcore/log.hh"

namespace ibsim {
namespace net {

namespace {

log::Component traceFabric("fabric");

/**
 * Island executing the current send()/receive chain. One value per
 * worker thread: each island runs whole windows on one worker, and the
 * value is re-stamped at every send, so nested sends (a receive handler
 * answering) always see their own island.
 */
thread_local std::size_t tlsEgressIsland = 0;

} // namespace

Fabric::Fabric(EventQueue& events, Rng& rng, LinkConfig config)
    : events_(events), rng_(rng), config_(config),
      loss_(std::make_unique<NoLoss>())
{
}

Fabric::PortRecord&
Fabric::port(std::uint16_t lid)
{
    if (lid >= ports_.size())
        ports_.resize(static_cast<std::size_t>(lid) + 1);
    return ports_[lid];
}

void
Fabric::attach(std::uint16_t lid, PortHandler& handler)
{
    PortRecord& record = port(lid);
    assert(record.handler == nullptr && "duplicate LID");
    record.handler = &handler;
}

void
Fabric::detach(std::uint16_t lid)
{
    if (lid < ports_.size())
        ports_[lid].handler = nullptr;
}

void
Fabric::setLossModel(std::unique_ptr<LossModel> model)
{
    assert(model);
    loss_ = std::move(model);
}

void
Fabric::addTap(CaptureTap tap)
{
    taps_.push_back(std::move(tap));
}

void
Fabric::setPortState(std::uint16_t lid, PortState state)
{
    port(lid).state = state;
}

void
Fabric::raisePortEvent(std::uint16_t lid, const PortEvent& ev)
{
    if (attached(lid))
        ports_[lid].handler->portEvent(ev);
}

void
Fabric::setLinkDown(std::vector<std::uint32_t>& set, std::uint32_t key,
                    bool down)
{
    auto it = std::find(set.begin(), set.end(), key);
    if (down && it == set.end()) {
        set.push_back(key);
    } else if (!down && it != set.end()) {
        *it = set.back();
        set.pop_back();
    }
}

void
Fabric::setLinkState(std::uint16_t a, std::uint16_t b, bool up)
{
    setLinkDown(downLinks_, linkKey(a, b), !up);
}

void
Fabric::setLaneLinkState(std::size_t island, std::uint16_t a,
                         std::uint16_t b, bool up)
{
    if (!sharded()) {
        setLinkState(a, b, up);
        return;
    }
    assert(island < lanes_.size());
    setLinkDown(lanes_[island].downLinks, linkKey(a, b), !up);
}

bool
Fabric::laneLinkDown(std::size_t island, std::uint16_t a,
                     std::uint16_t b) const
{
    const std::vector<std::uint32_t>& set =
        sharded() ? lanes_[island].downLinks : downLinks_;
    return std::find(set.begin(), set.end(), linkKey(a, b)) != set.end();
}

bool
Fabric::egressAdmits(const std::vector<std::uint32_t>& down_links,
                     const Packet& pkt, Time* detour) const
{
    *detour = Time();
    if (pkt.srcLid < ports_.size() &&
        ports_[pkt.srcLid].state == PortState::Down)
        return false;
    if (!down_links.empty() &&
        std::find(down_links.begin(), down_links.end(),
                  linkKey(pkt.srcLid, pkt.dstLid)) != down_links.end()) {
        if (!pkt.rerouted)
            return false;
        // SM reroute around the cut link: one extra hop of latency.
        *detour = config_.latency;
    }
    return true;
}

std::uint64_t
Fabric::totalPortEventDrops() const
{
    std::uint64_t total = portEventDrops_;
    for (const Lane& lane : lanes_)
        total += lane.portEventDrops;
    return total;
}

template <typename Emit>
bool
Fabric::runHook(FaultHook& hook, std::vector<FaultHook::Delivery>& spare,
                Packet& pkt, Time now, Emit&& emit)
{
    // Reuse one spare vector instead of allocating per packet. It is
    // taken out of the member while in use, so a delivery that re-enters
    // send() gets a fresh vector rather than this one.
    std::vector<FaultHook::Delivery> out = std::move(spare);
    out.clear();
    hook.processPacket(pkt, now, out);
    const bool kept = !out.empty();
    [[maybe_unused]] bool originalTaken = false;
    for (std::size_t i = 0; i < out.size(); ++i) {
        FaultHook::Delivery& d = out[i];
        if (d.borrowsOriginal()) {
            assert(!originalTaken && "two deliveries borrow the original");
            originalTaken = true;
            emit(i, std::move(pkt), d.extraDelay);
        } else {
            emit(i, std::move(d.mutablePacket()), d.extraDelay);
        }
    }
    out.clear();
    spare = std::move(out);
    return kept;
}

std::uint64_t
Fabric::send(Packet&& pkt)
{
    if (sharded())
        return sendSharded(std::move(pkt));

    pkt.wireId = nextWireId_++;
    pkt.sentAt = events_.now();
    ++totalSent_;

    // Port/link gate: a down source port or a down link kills the packet
    // at egress, before any fault stage — the wire simply is not there.
    Time detour;
    if (!egressAdmits(downLinks_, pkt, &detour)) {
        ++totalDropped_;
        ++portEventDrops_;
        for (const auto& tap : taps_)
            tap(pkt, true);
        IBSIM_TRACE(traceFabric, events_.now(),
                    pkt.str() + "  ** DROPPED (link down) **");
        return pkt.wireId;
    }

    // Stage zero of the fault pipeline: the legacy LossModel, consulted
    // with the fabric RNG before the hook so pre-chaos loss users keep
    // their exact packet-for-packet (and RNG draw-for-draw) behaviour.
    if (loss_->shouldDrop(pkt, rng_)) {
        ++totalDropped_;
        for (const auto& tap : taps_)
            tap(pkt, true);
        IBSIM_TRACE(traceFabric, events_.now(),
                    pkt.str() + "  ** DROPPED **");
        return pkt.wireId;
    }

    const std::uint64_t id = pkt.wireId;
    if (hook_ != nullptr) {
        const Time now = events_.now();
        const bool kept = runHook(
            *hook_, hookOut_, pkt, now,
            [&](std::size_t i, Packet&& p, Time extra) {
                if (i == 0) {
                    p.wireId = id;
                } else {
                    p.wireId = nextWireId_++;
                    ++totalInjected_;
                }
                p.sentAt = now;
                deliver(std::move(p), extra + detour);
            });
        if (!kept) {
            ++totalDropped_;
            for (const auto& tap : taps_)
                tap(pkt, true);
            IBSIM_TRACE(traceFabric, now,
                        pkt.str() + "  ** DROPPED (chaos) **");
        }
        return id;
    }

    deliver(std::move(pkt), detour);
    return id;
}

void
Fabric::deliver(Packet&& pkt, Time extra_delay)
{
    PortRecord& dst = port(pkt.dstLid);
    const bool unknownLid = (dst.handler == nullptr);
    const bool portDown = dst.state == PortState::Down;

    for (const auto& tap : taps_)
        tap(pkt, unknownLid || portDown);

    IBSIM_TRACE(traceFabric, events_.now(),
                pkt.str() +
                    (unknownLid || portDown ? "  ** DROPPED **" : ""));

    if (unknownLid || portDown) {
        ++totalDropped_;
        if (portDown)
            ++portEventDrops_;
        return;
    }

    // Per-port serialization: back-to-back packets from one port (or into
    // one port) queue behind each other; disjoint port pairs do not
    // contend. This matters for the flood experiments, where the wire is
    // actually busy. Chaos extra delay models switch-internal queueing,
    // so it lands between egress serialization and ingress arrival.
    // Note: port() for the source LID can grow the table and invalidate
    // `dst`, so the handler is read out first.
    PortHandler* handler = dst.handler;
    const Time serialization = Time::sec(
        static_cast<double>(pkt.wireSize()) / config_.bandwidthBytesPerSec);
    PortRecord& src = port(pkt.srcLid);
    const Time start = std::max(events_.now(), src.egressFreeAt);
    src.egressFreeAt = start + serialization;
    Time& ingress = ports_[pkt.dstLid].ingressFreeAt;
    const Time arrive =
        std::max(src.egressFreeAt + config_.latency + extra_delay, ingress);
    ingress = arrive + serialization;
    const Time deliverAt = arrive + config_.perPacketOverhead;

    // Park the packet in the pool and capture only its slot index: the
    // delivery closure stays within the event kernel's inline capacity
    // (no allocation per hop) and the slot's payload buffer is recycled.
    // The payload moves — no byte copy, and for the empty-payload flood
    // packets no allocator traffic at all.
    const std::uint32_t slot = pool_.acquire();
    pool_.at(slot) = std::move(pkt);

    auto deliver_cb = [this, handler, slot] {
        ++totalDelivered_;
        handler->receive(pool_.at(slot));
        pool_.release(slot);
    };
    static_assert(EventQueue::Callback::storesInline<decltype(deliver_cb)>,
                  "delivery closure must not allocate");
    events_.schedule(deliverAt, std::move(deliver_cb));
}

// ---------------------------------------------------------------------
// Island mode.
// ---------------------------------------------------------------------

void
Fabric::enableSharding(ShardedKernel& kernel)
{
    assert(lanes_.empty() && ports_.empty() &&
           "enable island mode before any lane or port exists");
    kernel_ = &kernel;
    kernel_->addBarrierAgent(this);
}

std::size_t
Fabric::addIslandLane(std::uint64_t rng_seed)
{
    assert(sharded());
    const std::size_t index = lanes_.size();
    lanes_.emplace_back(&kernel_->island(index), rng_seed);
    for (Lane& lane : lanes_)
        lane.out.resize(lanes_.size());
    return index;
}

void
Fabric::assignLid(std::uint16_t lid, std::size_t island)
{
    assert(sharded() && island < lanes_.size());
    if (lid >= islandOfLid_.size())
        islandOfLid_.resize(static_cast<std::size_t>(lid) + 1, 0);
    islandOfLid_[lid] = island;
    port(lid);  // pre-grow the port table: no resizing once traffic runs
}

std::size_t
Fabric::islandOf(std::uint16_t lid) const
{
    return lid < islandOfLid_.size() ? islandOfLid_[lid] : 0;
}

std::size_t
Fabric::egressIsland() const
{
    return sharded() ? tlsEgressIsland : 0;
}

EventQueue&
Fabric::islandEvents(std::size_t island)
{
    return sharded() ? *lanes_[island].events : events_;
}

void
Fabric::setIslandFaultHook(std::size_t island, FaultHook* hook)
{
    assert(sharded() && island < lanes_.size());
    lanes_[island].hook = hook;
}

std::uint64_t
Fabric::sendSharded(Packet&& pkt)
{
    const std::size_t laneIndex = islandOf(pkt.srcLid);
    Lane& lane = lanes_[laneIndex];
    tlsEgressIsland = laneIndex;

    // Per-lane wire-id spaces: the island in the high bits keeps ids
    // globally unique (and the barrier merge a strict total order)
    // without any cross-island counter.
    pkt.wireId = (static_cast<std::uint64_t>(laneIndex + 1) << 44) |
                 lane.nextWireId++;
    pkt.sentAt = lane.events->now();
    ++lane.sent;

    // Port/link gate against this island's own link-state replica: the
    // flap driver toggles each endpoint's replica from events on that
    // endpoint's island, so this read never crosses islands.
    Time detour;
    if (!egressAdmits(lane.downLinks, pkt, &detour)) {
        ++lane.dropped;
        ++lane.portEventDrops;
        for (const auto& tap : taps_)
            tap(pkt, true);
        IBSIM_TRACE(traceFabric, lane.events->now(),
                    pkt.str() + "  ** DROPPED (link down) **");
        return pkt.wireId;
    }

    if (loss_->shouldDrop(pkt, lane.rng)) {
        ++lane.dropped;
        for (const auto& tap : taps_)
            tap(pkt, true);
        IBSIM_TRACE(traceFabric, lane.events->now(),
                    pkt.str() + "  ** DROPPED **");
        return pkt.wireId;
    }

    const std::uint64_t id = pkt.wireId;
    if (lane.hook != nullptr) {
        const Time now = lane.events->now();
        const bool kept = runHook(
            *lane.hook, lane.hookOut, pkt, now,
            [&](std::size_t i, Packet&& p, Time extra) {
                if (i == 0) {
                    p.wireId = id;
                } else {
                    p.wireId =
                        (static_cast<std::uint64_t>(laneIndex + 1) << 44) |
                        lane.nextWireId++;
                    ++lane.injected;
                }
                p.sentAt = now;
                deliverSharded(laneIndex, std::move(p), extra + detour);
            });
        if (!kept) {
            ++lane.dropped;
            for (const auto& tap : taps_)
                tap(pkt, true);
            IBSIM_TRACE(traceFabric, now,
                        pkt.str() + "  ** DROPPED (chaos) **");
        }
        return id;
    }

    deliverSharded(laneIndex, std::move(pkt), detour);
    return id;
}

void
Fabric::deliverSharded(std::size_t lane_index, Packet&& pkt,
                       Time extra_delay)
{
    Lane& lane = lanes_[lane_index];
    const bool unknownLid = pkt.dstLid >= ports_.size() ||
                            ports_[pkt.dstLid].handler == nullptr;

    for (const auto& tap : taps_)
        tap(pkt, unknownLid);

    IBSIM_TRACE(traceFabric, lane.events->now(),
                pkt.str() + (unknownLid ? "  ** DROPPED **" : ""));

    if (unknownLid) {
        ++lane.dropped;
        return;
    }

    const Time serialization = Time::sec(
        static_cast<double>(pkt.wireSize()) / config_.bandwidthBytesPerSec);

    // Egress serialization max-chain on the source port — owned by this
    // island, unless the packet was forged with a foreign source LID
    // (ForgedNakStage): then it "appears from the wire" at the executing
    // island with no egress queueing, keeping every PortRecord
    // single-island-owned.
    Time depart;
    if (islandOf(pkt.srcLid) == lane_index) {
        PortRecord& src = ports_[pkt.srcLid];
        const Time start = std::max(lane.events->now(), src.egressFreeAt);
        src.egressFreeAt = start + serialization;
        depart = src.egressFreeAt;
    } else {
        depart = lane.events->now() + serialization;
    }
    const Time arrive0 = depart + config_.latency + extra_delay;
    const std::size_t dstIsland = islandOf(pkt.dstLid);

    // The packet's one write on its way across: into a slot of this
    // lane's pool, held until the delivery releases it.
    const Parcel parcel{arrive0, serialization, pkt.wireId,
                        static_cast<std::uint32_t>(lane_index),
                        lane.pool.acquire()};
    lane.pool.at(parcel.slot) = std::move(pkt);

    if (dstIsland == lane_index) {
        finalizeIngress(dstIsland, parcel);
    } else {
        assert(kernel_->hasEdge(lane_index, dstIsland) &&
               "cross-island send along an undeclared route");
        // Keyed by effect time: the first event this parcel can schedule
        // at the destination (ingress chaining only pushes it later).
        const Time effect = arrive0 + config_.perPacketOverhead;
        lane.out[dstIsland].push(effect.toNs(), Parcel(parcel));
    }
}

void
Fabric::finalizeIngress(std::size_t dst_island, const Parcel& parcel)
{
    Lane& dst = lanes_[dst_island];
    PacketPool& pool = lanes_[parcel.lane].pool;
    PortRecord& rec = ports_[pool.at(parcel.slot).dstLid];
    if (rec.state == PortState::Down) {
        // Administrative ingress gate, checked on the owning island. The
        // egress tap already saw the packet as delivered; this late drop
        // models a port that died while the packet was in flight.
        ++dst.dropped;
        ++dst.portEventDrops;
        pool.release(parcel.slot);
        return;
    }
    PortHandler* handler = rec.handler;
    const Time arrive = std::max(parcel.arrive0, rec.ingressFreeAt);
    rec.ingressFreeAt = arrive + parcel.serialization;
    const Time deliverAt = arrive + config_.perPacketOverhead;

    // The slot's pool belongs to the sending lane, whose island shares
    // this island's component: one worker runs both this round.
    const auto island = static_cast<std::uint32_t>(dst_island);
    const std::uint32_t owner = parcel.lane;
    const std::uint32_t slot = parcel.slot;
    auto deliver_cb = [this, island, owner, handler, slot] {
        ++lanes_[island].delivered;
        tlsEgressIsland = island;
        PacketPool& pool = lanes_[owner].pool;
        handler->receive(pool.at(slot));
        pool.release(slot);
    };
    static_assert(EventQueue::Callback::storesInline<decltype(deliver_cb)>,
                  "delivery closure must not allocate");
    dst.events->schedule(deliverAt, std::move(deliver_cb));
}

std::uint64_t
Fabric::flushInbound(std::size_t island, Time /*now*/, Time horizon)
{
    // Drain every parcel whose effect fits below the window horizon.
    // The kernel only passes a horizon at or below the island's safe
    // channel-clock bound, which guarantees all such parcels are already
    // visible — so the drained set, and hence the merge below, is a pure
    // function of virtual state (deterministic at any worker count).
    Lane& dst = lanes_[island];
    std::vector<Parcel>& in = dst.inbox;
    in.clear();
    const std::int64_t threshold = horizon.toNs();
    const Time overhead = config_.perPacketOverhead;
    // Only in-neighbor lanes can hold parcels for this island (cross-
    // island sends along undeclared routes assert in deliverSharded), so
    // the scan skips the rest of the mesh.
    for (std::uint32_t src_index : kernel_->inNeighbors(island)) {
        lanes_[src_index].out[island].drainUpTo(
            threshold,
            [overhead](const Parcel& p) {
                return (p.arrive0 + overhead).toNs();
            },
            in);
    }
    if (in.empty())
        return 0;

    // Canonical merge order: (arrival, wire-id) is a strict total order
    // (wire ids are unique), so the ingress max-chain below is identical
    // whatever the worker count or source-lane completion order was.
    // Effect order equals arrival order (a constant offset apart), so
    // successive drains inject in globally sorted order too.
    std::sort(in.begin(), in.end(), [](const Parcel& a, const Parcel& b) {
        return a.arrive0 != b.arrive0 ? a.arrive0 < b.arrive0
                                      : a.wireId < b.wireId;
    });
    for (const Parcel& parcel : in)
        finalizeIngress(island, parcel);
    return in.size();
}

Time
Fabric::inboundEarliest(std::size_t island)
{
    // Probed on every island step: restrict to in-neighbor lanes (the
    // only ones that can feed this island) — on a sparse mesh this turns
    // an all-islands sweep into a handful of loads.
    std::int64_t earliest = CrossChannel<Parcel>::kEmpty;
    for (std::uint32_t src_index : kernel_->inNeighbors(island))
        earliest = std::min(earliest,
                            lanes_[src_index].out[island].minKey());
    return earliest == CrossChannel<Parcel>::kEmpty ? Time::max()
                                                    : Time::fromNs(earliest);
}

std::size_t
Fabric::inboundPending(std::size_t island)
{
    std::size_t total = 0;
    for (Lane& src : lanes_)
        total += src.out[island].size();
    return total;
}

void
Fabric::declareRoute(std::uint16_t src_lid, std::uint16_t dst_lid)
{
    if (!sharded())
        return;
    if (dst_lid >= islandOfLid_.size())
        return;  // never-assigned LID: packets to it drop at egress
    const std::size_t src = islandOf(src_lid);
    const std::size_t dst = islandOf(dst_lid);
    kernel_->declareEdge(src, dst);
    kernel_->declareEdge(dst, src);
}

void
Fabric::declareDenseIsland(std::size_t island)
{
    if (sharded())
        kernel_->declareDense(island);
}

std::uint64_t
Fabric::totalSent() const
{
    std::uint64_t total = totalSent_;
    for (const Lane& lane : lanes_)
        total += lane.sent;
    return total;
}

std::uint64_t
Fabric::totalDelivered() const
{
    std::uint64_t total = totalDelivered_;
    for (const Lane& lane : lanes_)
        total += lane.delivered;
    return total;
}

std::uint64_t
Fabric::totalDropped() const
{
    std::uint64_t total = totalDropped_;
    for (const Lane& lane : lanes_)
        total += lane.dropped;
    return total;
}

std::uint64_t
Fabric::totalInjected() const
{
    std::uint64_t total = totalInjected_;
    for (const Lane& lane : lanes_)
        total += lane.injected;
    return total;
}

} // namespace net
} // namespace ibsim
