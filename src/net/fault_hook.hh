/**
 * @file
 * The fabric's fault-injection hook point.
 *
 * The fabric consults at most one FaultHook per packet, after the legacy
 * LossModel stage and before delivery scheduling. The hook maps one packet
 * to zero or more deliveries: dropping (empty result), delaying (extra
 * delay per delivery), duplicating or corrupting (extra/mutated copies),
 * and injecting entirely new packets such as forged NAKs (deliveries whose
 * addressing differs from the input). The canonical implementation is
 * chaos::FaultInjector; the interface lives in net so the fabric stays
 * independent of the chaos subsystem.
 *
 * Deliveries are copy-on-write. A delivery made with Delivery::borrow()
 * refers to the fabric's own packet instead of holding a copy; readers go
 * through packet(), and the first mutablePacket() call copies the packet
 * into the delivery. Copying a Delivery always materializes an owned
 * packet, and moving one transfers the borrow, so at most one delivery
 * borrows the original. The fabric moves the original, never a copy, into
 * the wire slot of the delivery still borrowing it, so a packet no stage
 * changed is never copied. A drop leaves the original untouched, so taps
 * that see the drop see the pristine packet, payload included.
 */

#ifndef IBSIM_NET_FAULT_HOOK_HH
#define IBSIM_NET_FAULT_HOOK_HH

#include <utility>
#include <vector>

#include "net/packet.hh"
#include "simcore/time.hh"

namespace ibsim {
namespace net {

/**
 * Per-packet fault pipeline consulted by Fabric::send().
 */
class FaultHook
{
  public:
    /** One packet to put on the wire, with optional added latency. */
    class Delivery
    {
      public:
        /** A delivery owning @p pkt (a forged or replayed packet). */
        Delivery(Packet pkt, Time extra_delay = Time())
            : extraDelay(extra_delay), pkt_(std::move(pkt))
        {}

        /**
         * A delivery borrowing @p original, which must outlive it (the
         * fabric's packet, valid until the fabric consumes the list).
         */
        static Delivery
        borrow(const Packet& original)
        {
            Delivery d;
            d.original_ = &original;
            return d;
        }

        /** Copies own their packet: a borrow is never duplicated. */
        Delivery(const Delivery& other)
            : extraDelay(other.extraDelay), pkt_(other.packet())
        {}

        Delivery& operator=(const Delivery&) = delete;

        /** Moves transfer the borrow; the source is left owning. */
        Delivery(Delivery&& other) noexcept
            : extraDelay(other.extraDelay),
              original_(std::exchange(other.original_, nullptr)),
              pkt_(std::move(other.pkt_))
        {}

        Delivery&
        operator=(Delivery&& other) noexcept
        {
            extraDelay = other.extraDelay;
            original_ = std::exchange(other.original_, nullptr);
            pkt_ = std::move(other.pkt_);
            return *this;
        }

        /** The packet as it stands (the original while borrowed). */
        const Packet&
        packet() const
        {
            return original_ != nullptr ? *original_ : pkt_;
        }

        /** The packet for writing; copies the original on first use. */
        Packet&
        mutablePacket()
        {
            if (original_ != nullptr) {
                pkt_ = *original_;
                original_ = nullptr;
            }
            return pkt_;
        }

        /** True while this delivery still refers to the original. */
        bool borrowsOriginal() const { return original_ != nullptr; }

        Time extraDelay;

      private:
        Delivery() = default;

        const Packet* original_ = nullptr;
        Packet pkt_;
    };

    virtual ~FaultHook() = default;

    /**
     * Transform @p pkt into deliveries appended to @p out. Leaving @p out
     * empty drops the packet. The first delivery is treated as the
     * original (it keeps the wire id); later entries get fresh wire ids
     * and are counted as injected traffic. A delivery may borrow @p pkt
     * (Delivery::borrow()) — the fabric keeps it alive and unchanged
     * until it has consumed @p out. Implementations must be
     * deterministic given their own seed: the fabric passes no RNG.
     */
    virtual void processPacket(const Packet& pkt, Time now,
                               std::vector<Delivery>& out) = 0;
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_FAULT_HOOK_HH
