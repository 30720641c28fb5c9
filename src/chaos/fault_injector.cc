#include "chaos/fault_injector.hh"

#include <algorithm>
#include <utility>

#include "exp/seed_stream.hh"

namespace ibsim {
namespace chaos {

bool
isRequestOpcode(net::Opcode op)
{
    switch (op) {
    case net::Opcode::ReadRequest:
    case net::Opcode::WriteRequest:
    case net::Opcode::Send:
    case net::Opcode::AtomicRequest:
        return true;
    case net::Opcode::ReadResponse:
    case net::Opcode::Ack:
    case net::Opcode::Nak:
    case net::Opcode::RnrNak:
    case net::Opcode::AtomicResponse:
    case net::Opcode::CmRearm:
    case net::Opcode::CmRearmAck:
        return false;
    }
    return false;
}

bool
PacketFilter::matches(const net::Packet& pkt) const
{
    if (srcLid && pkt.srcLid != *srcLid)
        return false;
    if (dstLid && pkt.dstLid != *dstLid)
        return false;
    if (srcQpn && pkt.srcQpn != *srcQpn)
        return false;
    if (dstQpn && pkt.dstQpn != *dstQpn)
        return false;
    if (opcode && pkt.op != *opcode)
        return false;
    if (requestsOnly && !isRequestOpcode(pkt.op))
        return false;
    if (responsesOnly && isRequestOpcode(pkt.op))
        return false;
    return true;
}

void
DelayStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                  Time /*now*/, Rng& rng, InjectorStats& stats)
{
    for (auto& d : deliveries) {
        if (!filter_.matches(d.packet()) || !rng.chance(rate_))
            continue;
        d.extraDelay += rng.uniformTime(min_, max_ + Time::ns(1));
        ++stats.delayed;
    }
}

void
ReorderStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                    Time /*now*/, Rng& rng, InjectorStats& stats)
{
    for (auto& d : deliveries) {
        if (!filter_.matches(d.packet()) || !rng.chance(rate_))
            continue;
        // Holding this packet lets later sends overtake it: bounded
        // reordering without any cross-packet state in the stage.
        d.extraDelay += rng.uniformTime(Time::ns(1), maxHold_ + Time::ns(1));
        ++stats.reordered;
    }
}

void
DuplicateStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                      Time /*now*/, Rng& rng, InjectorStats& stats)
{
    const std::size_t n = deliveries.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!filter_.matches(deliveries[i].packet()) || !rng.chance(rate_))
            continue;
        // Copying a delivery materializes its own packet; the original
        // stays borrowed.
        net::FaultHook::Delivery copy = deliveries[i];
        copy.mutablePacket().chaosFlags |= net::Packet::chaosDuplicated;
        copy.extraDelay +=
            rng.uniformTime(Time::ns(0), maxCopyDelay_ + Time::ns(1));
        deliveries.push_back(std::move(copy));
        ++stats.duplicated;
    }
}

void
CorruptStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                    Time /*now*/, Rng& rng, InjectorStats& stats)
{
    for (auto& d : deliveries) {
        if (!filter_.matches(d.packet()) || !rng.chance(rate_))
            continue;
        net::Packet& pkt = d.mutablePacket();
        // Flip bits in one randomly chosen field — header or payload —
        // modeling in-flight corruption before the ICRC check.
        switch (rng.uniformInt(0, 5)) {
        case 0:
            pkt.psn ^= 1u << rng.uniformInt(0, 23);
            break;
        case 1:
            pkt.dstQpn ^= 1u << rng.uniformInt(0, 23);
            break;
        case 2:
            pkt.raddr ^= std::uint64_t(1) << rng.uniformInt(0, 63);
            break;
        case 3:
            pkt.length ^= 1u << rng.uniformInt(0, 30);
            break;
        case 4:
            pkt.op = static_cast<net::Opcode>(
                static_cast<std::uint8_t>(pkt.op) ^
                (1u << rng.uniformInt(0, 7)));
            break;
        default:
            if (!pkt.payload.empty()) {
                auto idx = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<std::int64_t>(pkt.payload.size()) - 1));
                pkt.payload[idx] ^=
                    static_cast<std::uint8_t>(1u << rng.uniformInt(0, 7));
            } else {
                pkt.psn ^= 1u << rng.uniformInt(0, 23);
            }
            break;
        }
        pkt.chaosFlags |= net::Packet::chaosCorrupted;
        if (evadeCrc_ > 0.0 && rng.chance(evadeCrc_))
            pkt.chaosFlags |= net::Packet::chaosCrcEvading;
        ++stats.corrupted;
    }
}

bool
LinkFlapStage::down(Time now) const
{
    if (period_.toNs() <= 0)
        return false;
    std::int64_t pos = (now - phase_).toNs() % period_.toNs();
    if (pos < 0)
        pos += period_.toNs();
    return pos < downFor_.toNs();
}

void
LinkFlapStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                     Time now, Rng& /*rng*/, InjectorStats& stats)
{
    if (!down(now))
        return;
    auto it = std::remove_if(
        deliveries.begin(), deliveries.end(),
        [&](const net::FaultHook::Delivery& d) {
            if (!filter_.matches(d.packet()))
                return false;
            ++stats.flapDropped;
            ++stats.dropped;
            return true;
        });
    deliveries.erase(it, deliveries.end());
}

void
DropStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                 Time /*now*/, Rng& rng, InjectorStats& stats)
{
    auto it = std::remove_if(
        deliveries.begin(), deliveries.end(),
        [&](const net::FaultHook::Delivery& d) {
            if (!filter_.matches(d.packet()) || !rng.chance(rate_))
                return false;
            ++stats.dropped;
            return true;
        });
    deliveries.erase(it, deliveries.end());
}

void
LossModelStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                      Time /*now*/, Rng& rng, InjectorStats& stats)
{
    auto it = std::remove_if(
        deliveries.begin(), deliveries.end(),
        [&](const net::FaultHook::Delivery& d) {
            if (!filter_.matches(d.packet()) ||
                !model_->shouldDrop(d.packet(), rng))
                return false;
            ++stats.dropped;
            return true;
        });
    deliveries.erase(it, deliveries.end());
}

void
ForgedNakStage::apply(std::vector<net::FaultHook::Delivery>& deliveries,
                      Time /*now*/, Rng& rng, InjectorStats& stats)
{
    const std::size_t n = deliveries.size();
    for (std::size_t i = 0; i < n; ++i) {
        const net::Packet& req = deliveries[i].packet();
        if (!filter_.matches(req) || !isRequestOpcode(req.op) ||
            !rng.chance(rate_)) {
            continue;
        }
        // Address the NAK back at the requester. Using the request's own
        // PSN makes the forgery safe-by-construction: a sequence-error NAK
        // at PSN p rewinds the requester to p and replays from there, and
        // an RNR NAK at p re-schedules p after the RNR wait — both are
        // states the real protocol reaches, just without a real cause.
        net::Packet nak;
        nak.op = nakOpcode_;
        nak.srcLid = req.dstLid;
        nak.dstLid = req.srcLid;
        nak.srcQpn = req.dstQpn;
        nak.dstQpn = req.srcQpn;
        nak.psn = req.psn;
        if (maxRewind_ > 0) {
            // ACK-coalescing edge case: land the forged PSN below the
            // request, possibly inside a range a coalesced ACK already
            // retired. A correct requester clamps the rewind at its
            // go-back-N window head; double-retiring a completed WR
            // would trip the oracle's exactly-once accounting. The draw
            // happens only in this mode, so default-configured stages
            // keep their packet-for-packet RNG schedules.
            const auto back = static_cast<std::uint32_t>(
                rng.uniformInt(1, maxRewind_));
            nak.psn = (req.psn - back) & 0xffffff;
        }
        if (nakOpcode_ == net::Opcode::RnrNak)
            nak.rnrDelay = rnrDelay_;
        else
            nak.nak = net::NakCode::PsnSequenceError;
        nak.chaosFlags |= net::Packet::chaosForged;
        deliveries.push_back({std::move(nak), Time()});
        ++stats.naksForged;
    }
}

FaultInjector::FaultInjector(std::uint64_t seed)
    : rng_(exp::SeedStream("chaos.injector", seed).base())
{
}

FaultInjector&
FaultInjector::addStage(std::unique_ptr<FaultStage> stage)
{
    stages_.push_back(std::move(stage));
    return *this;
}

void
FaultInjector::processPacket(const net::Packet& pkt, Time now,
                             std::vector<net::FaultHook::Delivery>& out)
{
    ++stats_.packetsSeen;
    out.push_back(net::FaultHook::Delivery::borrow(pkt));
    for (auto& stage : stages_) {
        stage->apply(out, now, rng_, stats_);
        if (out.empty())
            return;
    }
}

} // namespace chaos
} // namespace ibsim
