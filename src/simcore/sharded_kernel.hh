/**
 * @file
 * Conservative-lookahead parallel driver over per-island EventQueues.
 *
 * A ShardedKernel partitions a simulation into islands — in the cluster
 * layer one island per node (or per node *plane* when a hot node is
 * split) — each owning a private EventQueue. Cross-island work travels
 * through per-(src, dst) channels that BarrierAgents (the Fabric, the
 * InvariantMonitor) drain in canonical (timestamp, wire-id) order, which
 * makes the execution deterministic for a fixed seed regardless of the
 * worker count.
 *
 * Synchronization is pairwise, not global. Every island publishes a
 * channel clock — the virtual time it has fully executed and flushed
 * through — and an island only blocks on the minimum clock of its
 * *in-neighbors* in the declared edge graph (declareEdge(); the cluster
 * layer declares an edge per QP connection, and a UD-capable island
 * falls back to dense edges because UD datagrams name their destination
 * per work request). The lookahead L is the minimum virtual time any
 * cross-island influence needs (link latency + per-packet overhead), so
 * an island whose in-neighbors have published clock c may safely execute
 * through c + L: everything its neighbors still owe it lands strictly
 * later. Windows are aligned to an absolute grid of L-sized slots, which
 * keeps each island's flush/run step sequence a pure function of the
 * virtual state — the determinism backbone (DESIGN.md §12.b).
 *
 * Execution is batched into *rounds* of windowsPerRound() grid windows.
 * Between rounds the kernel quiesces once to check runUntil()
 * predicates, detect drain, and jump over idle gaps to the globally
 * earliest pending work. Inside a round the unit of work is a connected
 * component of the edge graph (DESIGN.md §12.e): no edge leaves a
 * component, so nothing in it can feed or wait on an island outside it,
 * and each live component runs its whole round on one worker with the
 * plain sequential island scan — no per-island claims, wakes or
 * handoffs. Live components are listed in per-worker home slices
 * (component index mod jobs); a worker drains its own slice first, so a
 * component keeps its core across rounds, then steals whole components
 * from the other slices. A round with at most one live component runs
 * inline on the coordinator without waking the pool. Which worker runs a
 * component never changes
 * what its islands execute, so trace hashes, stats and oracle verdicts
 * are bit-identical at any jobs count. jobs = 1 runs the identical
 * algorithm inline with no threads — the "sequential" reference the
 * differential tests compare against. A dense island (or a graph with
 * no declared edges) forms a single component, which then runs on one
 * worker.
 *
 * Round three (DESIGN.md §12.c) keeps round boundaries cheap. Per-island
 * *trigger counters* — monotone, island-local progress counts
 * registered via addTrigger() — are folded into a global sum right after
 * each executed window, so runUntilTriggered() knows at the next round
 * boundary, with one flag read, that it is satisfied (the polling
 * runUntil() stays as the fallback for opaque predicates; both stop at
 * the same round boundary, so they are bit-identical). A per-component
 * *drain probe* ends a component's round early when a scan pass
 * executed no window and nothing at or below the round limit is pending
 * in the component's queues or channels — the null-message leapfrog
 * tail is cut instead of crept through. `windowsPerRound` *adapts* —
 * predicate-free runs double the round length up to a cap, purely from
 * simulation-visible state, so long drains quiesce logarithmically
 * rather than linearly often.
 *
 * Round starts are per island (DESIGN.md §12.d). At each quiesce the
 * kernel takes every island's earliest pending item (queue or inbound
 * channel) and relaxes it over the declared edge graph, one lookahead
 * per hop, into a lower bound lb_i on the first virtual time island i
 * can execute anything this round: an in-neighbor j executes nothing
 * before lb_j, so nothing it sends lands before lb_j + L. Island i
 * starts the round with its clock at lb_i - 1 instead of the round
 * start, and an island whose bound lies past the round limit starts the
 * round finished — it is never scanned, and a component whose islands
 * all start finished is not dispatched at all. Each island still
 * executes exactly the same grid windows with the same flush horizons,
 * so results are bit-identical; only the no-op clock creeps through
 * idle windows disappear.
 *
 * What the kernel deliberately does not do: share any RNG, wire-id
 * counter or packet pool between islands (the fabric forks all three per
 * island), or interleave same-timestamp events across islands the way a
 * single global queue would. Island mode is therefore its own
 * deterministic mode, not a bit-replay of the single-queue mode — the
 * single-queue path is untouched and keeps its own goldens.
 */

#ifndef IBSIM_SIMCORE_SHARDED_KERNEL_HH
#define IBSIM_SIMCORE_SHARDED_KERNEL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "simcore/event_queue.hh"
#include "simcore/time.hh"

namespace ibsim {

/**
 * Parallel conservative-lookahead driver over N island EventQueues.
 */
class ShardedKernel
{
  public:
    /**
     * A component holding cross-island channels (fabric, monitor, ...).
     *
     * flushInbound(i, now, horizon) is called by the worker currently
     * executing island i immediately before each of i's windows, with
     * `now` = i's channel clock (everything executed so far) and
     * `horizon` = the window's run limit. The agent must
     *
     *  - inject every buffered item whose earliest *effect* (first event
     *    it schedules) is <= horizon — the channel-clock protocol
     *    guarantees all such items are already visible — and
     *  - evaluate every deferred check whose timestamp is <= now (its
     *    target state can no longer change before the check's meaning),
     *
     * both in the canonical (time, wire-id) merge order, and return the
     * number of items consumed. The kernel additionally issues a
     * sequential flush with now = horizon = the final synchronized clock
     * whenever a run quiesces, so deferred checks never outlive a run.
     */
    class BarrierAgent
    {
      public:
        virtual ~BarrierAgent() = default;

        /** Drain work queued for @p island up to the given thresholds. */
        virtual std::uint64_t flushInbound(std::size_t island, Time now,
                                           Time horizon) = 0;

        /**
         * Earliest effect time buffered for @p island, Time::max() when
         * none. Items that schedule events (parcels) must be reported —
         * the kernel uses this to pick windows and detect drain; purely
         * advisory items (deferred checks) may be omitted.
         */
        virtual Time inboundEarliest(std::size_t) { return Time::max(); }

        /** Buffered event-producing items for @p island (for pending()). */
        virtual std::size_t inboundPending(std::size_t) { return 0; }
    };

    /**
     * @param lookahead minimum cross-island influence latency (> 0)
     * @param jobs worker count; clamped to the island count at startup,
     *        1 = run the same round/window algorithm inline, no threads
     */
    ShardedKernel(Time lookahead, unsigned jobs);
    ~ShardedKernel();

    ShardedKernel(const ShardedKernel&) = delete;
    ShardedKernel& operator=(const ShardedKernel&) = delete;

    /** Add an island (before the first run). Returns its index. */
    std::size_t addIsland();

    EventQueue& island(std::size_t i) { return *islands_[i].queue; }
    std::size_t islandCount() const { return islands_.size(); }

    /** Effective worker count (clamped once running). */
    unsigned jobs() const { return jobs_; }

    Time lookahead() const { return lookahead_; }

    /** Round-synchronized virtual time. */
    Time now() const { return now_; }

    /** @{ The cross-island edge graph driving the channel clocks.
     *
     * declareEdge(src, dst) records that src can influence dst (packets,
     * deferred checks); dst then blocks on src's clock. declareDense(i)
     * connects i to every island both ways — including islands added
     * *after* the call — the sound fallback for islands whose
     * destinations are not known up front (UD). While no
     * edge has ever been declared the kernel assumes a dense graph, so a
     * raw kernel user who never declares edges gets conservative (and
     * correct) all-pairs synchronization. Edges are normally declared at
     * setup; declaring one mid-run is allowed only while the kernel is
     * quiesced (between run()/advance() calls); every such declaration
     * recomputes the connected components, a round's unit of work. */
    void declareEdge(std::size_t src, std::size_t dst);
    void declareDense(std::size_t island);
    bool hasEdge(std::size_t src, std::size_t dst) const;

    /**
     * In-neighbor islands of @p i — the only islands whose channels can
     * hold work for i, so agents may restrict their per-window channel
     * scans to this list instead of probing every island. Rebuilt when
     * the kernel starts and on quiesced edge declarations; empty before
     * the first run.
     */
    const std::vector<std::uint32_t>&
    inNeighbors(std::size_t i) const
    {
        return islands_[i].inNbr;
    }
    /** @} */

    /** @{ Logical islands. Splitting a hot node over several islands
     * (cluster addNodePlanes()) maps its planes to one *logical* island
     * so KernelStats attributes work to the node, not to whichever
     * worker or plane executed it. Defaults to identity. */
    void setLogicalIsland(std::size_t island, std::size_t logical);
    std::size_t logicalIslandCount() const;
    /** @} */

    /**
     * Pin the round length (the quiesce/steal-rebalance granularity).
     * Calling this disables adaptive rounds: predicate-free runs
     * otherwise double the round length per busy round (up to
     * kMaxAdaptiveWindows) so long drains quiesce logarithmically
     * often. runUntil()/runUntilTriggered() always use the base length
     * — the round boundary is their stop granularity, and trigger and
     * poll paths must stop at identical times.
     */
    void setWindowsPerRound(unsigned windows);
    unsigned windowsPerRound() const { return windowsPerRound_; }

    /** Adaptive round-length cap for predicate-free runs. */
    static constexpr unsigned kMaxAdaptiveWindows = 256;

    /** @{ Per-island trigger counters — the runUntil fast path.
     *
     * A trigger is a monotone (non-decreasing under simulated
     * execution) counter that reads only @p island's state — e.g. a
     * CQ's total completion count, or "work requests retired on this
     * QP". The worker executing the island re-reads it after every
     * executed window and folds the delta into a global sum, so
     * runUntilTriggered(target) detects `sum >= target` inside the
     * worker pass, the moment the crossing window retires. The run
     * still stops at the next round boundary (run-ahead makes
     * mid-round truncation non-deterministic — DESIGN.md §12.c), which
     * is exactly where the polling fallback
     * `runUntil([&]{ return sum() >= target; })` stops too: the two
     * are bit-identical, triggers just replace the O(islands) quiesce
     * poll with one flag read. Registration is only legal while the kernel
     * is quiesced (also *between* runs — counters re-seed per call). */
    using TriggerCount = std::function<std::uint64_t()>;
    std::size_t addTrigger(std::size_t island, TriggerCount count);
    void clearTriggers();
    std::size_t triggerCount() const { return triggers_.size(); }

    /**
     * Run until the registered trigger counters sum to >= @p target.
     * @return true if the target was reached (false = limit cut).
     */
    bool runUntilTriggered(std::uint64_t target, Time limit = Time::max());
    /** @} */

    /** Register / remove a channel holder (fabric, monitor, ...). */
    void addBarrierAgent(BarrierAgent* agent);
    void removeBarrierAgent(BarrierAgent* agent);

    /**
     * Run until every island drains (and all channels are empty) or
     * @p limit is reached. Mirrors EventQueue::run(): events at exactly
     * @p limit execute; on a limit cut every island clock is left at
     * @p limit. @return true if the simulation drained.
     */
    bool run(Time limit = Time::max());

    /**
     * Run until @p pred holds, checking at every round boundary (the
     * kernel quiesces once per windowsPerRound() grid windows; the
     * predicate may read any cross-island state there).
     * @return true if the predicate was satisfied.
     */
    bool runUntil(const std::function<bool()>& pred,
                  Time limit = Time::max());

    /** Advance all islands to now() + delta; clocks end exactly there. */
    void advance(Time delta);

    /** Total events executed across all islands. */
    std::uint64_t executed() const;

    /** Pending events across all islands (incl. buffered parcels). */
    std::size_t pending() const;

    /**
     * Sharding observability: round/window counts, channel traffic, the
     * per-logical-island event-count spread (imbalance is what caps the
     * parallel speedup), and scheduler behaviour. steals,
     * workerBusyFraction and maxReadyQueueDepth describe the *schedule*
     * — which worker ran which component, and for how long — so they
     * depend on timing and are not part of the deterministic surface the
     * differential tests compare. Every other counter is a function of
     * the simulation alone and equal at any jobs count.
     */
    struct KernelStats
    {
        std::uint64_t barriers = 0;        ///< round quiesce points
        std::uint64_t windows = 0;         ///< island-windows executed
        std::uint64_t channelParcels = 0;  ///< cross-island items flushed
        /** Component-rounds run by a worker other than the component's
         * home worker. */
        std::uint64_t steals = 0;
        std::uint64_t maxClockLagNs = 0;   ///< worst blocked-island lag
        std::uint64_t triggerExits = 0;    ///< runs exited via trigger flag
        std::uint64_t drainAborts = 0;     ///< component round tails cut
        std::uint64_t roundsSkipped = 0;   ///< quiesces adaptive rounds saved
        /** Island-rounds finished at dispatch (bound past the limit). */
        std::uint64_t idleIslandRounds = 0;
        /** Connected components of the edge graph (0 before any run). */
        std::uint64_t components = 0;
        /** Component-rounds dispatched (components with a live island). */
        std::uint64_t liveComponentRounds = 0;
        /** Most live components any worker's home slice held in a round. */
        std::uint64_t maxReadyQueueDepth = 0;
        std::vector<std::uint64_t> executedPerIsland;  ///< logical islands
        std::uint64_t maxIslandExecuted = 0;
        std::uint64_t minIslandExecuted = 0;
        /** Per worker: wall time inside components over its round time. */
        std::vector<double> workerBusyFraction;
    };

    KernelStats kernelStats() const;

  private:
    /**
     * Per-island execution state, touched only by the worker running the
     * island's component this round (the epoch handshake orders rounds).
     * done is the island's channel clock.
     */
    struct alignas(64) Island
    {
        std::unique_ptr<EventQueue> queue;
        std::int64_t done = 0;
        bool roundDone = false;
        std::vector<std::uint32_t> inNbr;  ///< in-neighbor island indices
        std::vector<std::uint32_t> outNbr;  ///< out-neighbor island indices
        std::vector<std::uint32_t> trig;  ///< indices into triggers_
        std::uint64_t windows = 0;       ///< windows executed
        std::uint64_t parcels = 0;       ///< items flushed
        std::uint64_t maxLagNs = 0;      ///< worst blocked lag
    };

    /** A monotone island-local progress counter (addTrigger()). */
    struct Trigger
    {
        std::size_t island;
        TriggerCount count;
        /** Last value folded into trigSum_ (owned by i's executor). */
        std::uint64_t lastSeen = 0;
    };

    /**
     * One worker: its thread, its home slice of the round's live
     * components (written by the coordinator before the round starts,
     * claimed through `next` by the owner and by thieves alike) and its
     * wall-clock accounting (observability only).
     */
    struct alignas(64) Worker
    {
        std::thread thread;
        std::vector<std::uint32_t> slice;
        std::atomic<std::size_t> next{0};
        std::uint64_t maxSlice = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t totalNs = 0;
    };

    /**
     * The round loop shared by run()/runUntil()/advance().
     * @return true when drained, false when the limit cut the run.
     */
    bool runCore(Time limit, const std::function<bool()>* pred,
                 bool* pred_hit);

    /** Execute one round up to @p round_limit across all workers; each
     * island's clock starts at lb_ - 1 (or finished, past the limit). */
    void dispatchRound(Time round_limit);

    /** One worker's participation in the current round: its own slice,
     * then whole components stolen from the other slices. */
    void workerRound(unsigned worker);

    /** Run component @p c's round: scan its islands until all finish or
     * the drain probe finds nothing left at or below the round limit. */
    void runComponent(std::uint32_t c);

    /** Advance island @p i as far as the channel clocks allow; true once
     * it has finished the round. */
    bool stepIsland(std::size_t i, Time round_limit);

    /** Fold island @p i's trigger counters into trigSum_ (its executor). */
    void noteTriggers(Island& is);

    /** Drain probe: nothing of component @p c is pending at or below
     * @p t, in its queues or inbound channels. */
    bool componentQuietBelow(std::uint32_t c, Time t) const;

    /** Safe horizon of island @p i: min in-neighbor clock + lookahead. */
    Time safeHorizon(const Island& is) const;

    /** Earliest buffered inbound effect for island @p i (all agents). */
    Time inboundEarliest(std::size_t i) const;

    void workerLoop(unsigned worker);

    /** Spawn the worker pool on first use (islands are final by then). */
    void startWorkers();

    /** Rebuild every island's neighbor lists and the connected
     * components from the edge matrix. */
    void rebuildNeighbors();

    /** Grow the edge matrix to the island count, preserving entries. */
    void growEdges();

    /** Whether @p island was declared dense (edges to every island). */
    bool isDense(std::size_t island) const;

    /** Earliest pending work over all islands and channels (quiesced).
     * Records each island's own earliest item in lb_ (relaxBounds()). */
    Time earliestPending();

    /** Relax lb_ over the edge graph, L per hop: island i executes
     * nothing this round before lb_[i] (exact up to @p round_limit,
     * beyond it only known to lie past the limit). */
    void relaxBounds(Time round_limit);

    /** Line every island clock up at @p t (t >= every island's now). */
    void syncClocks(Time t);

    /** Sequential end-of-run flush: judge deferred checks at @p t. */
    void quiesceFlush(Time t);

    /** End of the grid window containing @p t (multiples of lookahead). */
    Time gridEnd(Time t) const;

    Time lookahead_;
    unsigned jobs_;
    unsigned windowsPerRound_ = 16;
    bool windowsPinned_ = false;  ///< setWindowsPerRound disables adaptation
    std::deque<Island> islands_;
    std::vector<BarrierAgent*> agents_;
    Time now_;
    bool started_ = false;

    /** @{ Edge graph. Dense until the first declareEdge()/declareDense(). */
    std::vector<std::vector<std::uint8_t>> edges_;  ///< [src][dst]
    std::vector<std::uint8_t> dense_;  ///< islands with all-pairs edges
    bool anyEdgeDeclared_ = false;
    /** Connected components (edges taken both ways), numbered by their
     * lowest island; each lists its islands in ascending order. */
    std::vector<std::vector<std::uint32_t>> components_;
    /** @} */

    std::vector<std::size_t> logicalOf_;

    /** @{ Stats (coordinator-written unless atomic). */
    std::uint64_t rounds_ = 0;
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> drainAborts_{0};
    std::uint64_t triggerExits_ = 0;
    std::uint64_t roundsSkipped_ = 0;
    std::uint64_t idleIslandRounds_ = 0;
    std::uint64_t liveComponentRounds_ = 0;
    /** @} */

    /** @{ Trigger machinery. lastSeen lives in Trigger (per executor);
     * the sum and fire flag are the only cross-worker state. */
    std::vector<Trigger> triggers_;
    std::atomic<std::uint64_t> trigSum_{0};
    std::uint64_t trigTarget_ = 0;
    std::atomic<bool> trigArmed_{false};
    std::atomic<bool> trigFired_{false};
    /** @} */

    /** @{ Round-start lower bounds in ns (coordinator-only, quiesced),
     * and the (bound, island) min-heap relaxBounds() settles them with. */
    std::vector<std::int64_t> lb_;
    std::vector<std::pair<std::int64_t, std::uint32_t>> lbHeap_;
    /** @} */

    /**
     * @{ Worker pool protocol. The coordinator resets the per-island
     * round state, fills the home slices, publishes the round with a
     * release increment of epoch_, participates as worker 0, then waits
     * for every worker to park (outstanding_ == 0). Workers wake on
     * epoch_, run components until every slice is exhausted, then park.
     * The epoch release/acquire and the outstanding_ acq_rel decrement
     * order one round's island state before the next round's, whichever
     * worker runs a component then.
     */
    std::deque<Worker> workers_;
    std::atomic<std::uint64_t> epoch_{0};
    std::atomic<unsigned> outstanding_{0};
    std::atomic<bool> exit_{false};
    Time roundLimit_;
    /** @} */
};

} // namespace ibsim

#endif // IBSIM_SIMCORE_SHARDED_KERNEL_HH
