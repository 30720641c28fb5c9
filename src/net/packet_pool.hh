/**
 * @file
 * Free-list pool of net::Packet objects.
 *
 * Every packet the fabric carries used to live inside a std::function
 * closure: a heap allocation per hop for the closure itself plus the
 * payload vector churn when the closure died. The pool keeps a stable
 * vector of Packet slots and recycles them: acquire() hands out a slot
 * index (stable across pool growth, so delivery callbacks capture just
 * the index), release() returns it for reuse. Packets are *moved* into
 * their slot, so data payloads change hands without a byte copy and the
 * empty-payload packets of a flood (requests, ACKs, NAKs) recycle slots
 * with zero allocator traffic for millions of deliveries.
 *
 * In island mode each fabric lane owns one pool, and a packet's slot is
 * held on the *sending* lane for the whole flight: written once at
 * egress, referenced by the cross-island parcel, read in place by the
 * delivery on the destination island, and released there back to the
 * sending lane's pool. Both lanes lie in one connected component of the
 * kernel's edge graph, and one worker runs a component per round, so
 * the pool is never touched by two threads at once.
 */

#ifndef IBSIM_NET_PACKET_POOL_HH
#define IBSIM_NET_PACKET_POOL_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "net/packet.hh"

namespace ibsim {
namespace net {

/** Usage counters for capacity planning and tests. */
struct PacketPoolStats
{
    std::uint64_t acquires = 0;   ///< total acquire() calls
    std::uint64_t grows = 0;      ///< acquires that had to extend the pool
    std::size_t inFlight = 0;     ///< slots currently held
    std::size_t peakInFlight = 0; ///< high-water mark of held slots
};

/**
 * Index-addressed free-list pool of packets.
 */
class PacketPool
{
  public:
    /** Take a slot. The packet's fields are stale; assign before use. */
    std::uint32_t
    acquire()
    {
        ++stats_.acquires;
        std::uint32_t idx;
        if (!free_.empty()) {
            idx = free_.back();
            free_.pop_back();
        } else {
            ++stats_.grows;
            slots_.emplace_back();
            idx = static_cast<std::uint32_t>(slots_.size() - 1);
        }
        if (++stats_.inFlight > stats_.peakInFlight)
            stats_.peakInFlight = stats_.inFlight;
        return idx;
    }

    /**
     * The packet in slot @p idx. Deque storage keeps the reference stable
     * even when a reentrant acquire() (a receive handler sending a reply
     * through the fabric) grows the pool mid-delivery.
     */
    Packet& at(std::uint32_t idx) { return slots_[idx]; }
    const Packet& at(std::uint32_t idx) const { return slots_[idx]; }

    /** Return a slot; the payload buffer's capacity is retained. */
    void
    release(std::uint32_t idx)
    {
        slots_[idx].payload.clear();
        free_.push_back(idx);
        --stats_.inFlight;
    }

    /** Total slots ever created (bounds steady-state memory). */
    std::size_t size() const { return slots_.size(); }

    const PacketPoolStats& stats() const { return stats_; }

  private:
    std::deque<Packet> slots_;
    std::vector<std::uint32_t> free_;
    PacketPoolStats stats_;
};

} // namespace net
} // namespace ibsim

#endif // IBSIM_NET_PACKET_POOL_HH
