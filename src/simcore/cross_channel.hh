/**
 * @file
 * A single-owner cross-island channel: a plain buffer plus a min key.
 *
 * One CrossChannel sits on every directed (source island, destination
 * island) edge that a BarrierAgent routes work along (the fabric's
 * parcels, the invariant monitor's deferred checks). It holds no lock
 * and no atomic, because component ownership already serializes every
 * access (DESIGN.md §12.f):
 *
 *  - in a round, only the worker running the channel's component pushes
 *    to or drains it: a component is closed under in-neighbors, so both
 *    ends of every declared edge belong to one component, and one worker
 *    runs that component for the whole round (DESIGN.md §12.e);
 *  - the coordinator touches channels (earliest-pending scans, quiesce
 *    flushes, pending()) only while every worker is parked, after the
 *    round's release/acquire handshake;
 *  - a push along an undeclared edge (a monitor record shadowing a
 *    packet to an unknown LID) lands in a channel that no other worker
 *    ever drains: drains and probes walk in-neighbor lists only.
 *
 * minKey caches the smallest key buffered, so a consumer polling for
 * work (inboundEarliest, or a flush whose threshold is below everything
 * buffered) costs one compare.
 */

#ifndef IBSIM_SIMCORE_CROSS_CHANNEL_HH
#define IBSIM_SIMCORE_CROSS_CHANNEL_HH

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace ibsim {

template <typename T>
class CrossChannel
{
  public:
    static constexpr std::int64_t kEmpty =
        std::numeric_limits<std::int64_t>::max();

    /** Stage one item keyed by its (virtual-time) threshold key. */
    void
    push(std::int64_t key, T&& item)
    {
        buf_.push_back(std::move(item));
        minKey_ = std::min(minKey_, key);
    }

    /** Smallest key buffered (kEmpty when none). */
    std::int64_t minKey() const { return minKey_; }

    /**
     * Move every item with key(item) <= threshold into @p out, preserving
     * push order (the producer island's deterministic execution order).
     * @p key extracts the threshold key from an item.
     */
    template <typename KeyFn>
    void
    drainUpTo(std::int64_t threshold, KeyFn key, std::vector<T>& out)
    {
        if (minKey_ > threshold)
            return;
        std::size_t keep = 0;
        std::int64_t rest = kEmpty;
        for (std::size_t i = 0; i < buf_.size(); ++i) {
            const std::int64_t k = key(buf_[i]);
            if (k <= threshold) {
                out.push_back(std::move(buf_[i]));
            } else {
                rest = std::min(rest, k);
                if (keep != i)
                    buf_[keep] = std::move(buf_[i]);
                ++keep;
            }
        }
        buf_.resize(keep);
        minKey_ = rest;
    }

    /** Buffered item count. */
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<T> buf_;
    std::int64_t minKey_ = kEmpty;
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_CROSS_CHANNEL_HH
