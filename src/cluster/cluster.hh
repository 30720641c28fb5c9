/**
 * @file
 * A simulated InfiniBand cluster — the library's top-level entry point.
 *
 * A Cluster bundles the event queue, RNG, fabric and a set of nodes that
 * all share one device profile (heterogeneous clusters can add nodes with
 * explicit profiles). Experiment harnesses drive virtual time through
 * advance()/runUntil(), which play the roles of usleep() and the blocking
 * CQ wait in the paper's micro-benchmark.
 */

#ifndef IBSIM_CLUSTER_CLUSTER_HH
#define IBSIM_CLUSTER_CLUSTER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <deque>

#include "cluster/node.hh"
#include "net/fabric.hh"
#include "rnic/device_profile.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/sharded_kernel.hh"

namespace ibsim {

/**
 * Execution-mode knobs for a Cluster.
 *
 * Default: the historical single-queue simulation (one EventQueue, one
 * RNG) — byte-identical to what existed before island mode, pinned by
 * the repo's traceHash goldens.
 *
 * sharded = true partitions the cluster into one island per node: each
 * node's RNIC and fabric port live on a private EventQueue driven by a
 * ShardedKernel with conservative lookahead = link latency + per-packet
 * overhead (the minimum time any packet needs to cross islands). Every
 * island gets its own SeedStream-forked RNG, wire-id space and packet
 * pool, so a run is deterministic for a fixed seed at ANY worker count:
 * jobs = 1 (inline, no threads) through jobs = N produce bit-identical
 * trace hashes, per-QP stats and oracle verdicts. Island mode is its own
 * deterministic mode — not a bit-replay of the single-queue schedule.
 */
struct ClusterOptions
{
    /** One island per node on a ShardedKernel. */
    bool sharded = false;

    /** Worker threads for the sharded kernel (clamped to node count).
     * Each round, every connected component of the QP-connection graph
     * runs whole on one worker, so the usable parallelism is the number
     * of live components. */
    unsigned jobs = 1;
};

/**
 * A set of simulated machines on one fabric.
 */
class Cluster
{
  public:
    /**
     * Build a cluster of @p node_count nodes with identical RNICs.
     *
     * @param profile device profile shared by all nodes
     * @param node_count number of nodes (LIDs 1..n)
     * @param seed RNG seed; every stochastic element derives from it
     * @param link fabric link parameters
     * @param options execution mode (single-queue vs island sharding)
     */
    explicit Cluster(rnic::DeviceProfile profile,
                     std::size_t node_count = 2, std::uint64_t seed = 1,
                     net::LinkConfig link = {},
                     ClusterOptions options = {});

    Cluster(const Cluster&) = delete;
    Cluster& operator=(const Cluster&) = delete;

    /** Add another node (optionally with a different profile). */
    Node& addNode();
    Node& addNode(const rnic::DeviceProfile& profile);

    /**
     * Add one *hot machine* modeled as @p planes sibling nodes — the
     * per-QP-group island split. Each plane has its own LID, RNIC and
     * (in island mode) its own kernel island, so one hot endpoint (the
     * flood bench's client) no longer serializes a whole window: spread
     * its QP groups across the planes and the scheduler balances them
     * independently. All planes map to one *logical* island, so
     * KernelStats::executedPerIsland attributes their work to the
     * machine, not the plane. Identical node/LID layout in single-queue
     * mode (plain sibling nodes) — the differential tests compare the
     * same topology in both modes. Returns the planes in order.
     */
    std::vector<Node*> addNodePlanes(const rnic::DeviceProfile& profile,
                                     unsigned planes);

    Node& node(std::size_t index) { return *nodes_.at(index); }
    std::size_t nodeCount() const { return nodes_.size(); }

    EventQueue& events() { return events_; }
    Rng& rng() { return rng_; }
    net::Fabric& fabric() { return fabric_; }

    /** The parallel kernel, or nullptr in single-queue mode. */
    ShardedKernel* shardedKernel() { return kernel_.get(); }

    bool sharded() const { return kernel_ != nullptr; }

    Time
    now() const
    {
        return kernel_ ? kernel_->now() : events_.now();
    }

    /** Advance virtual time by @p delta (the micro-benchmark's usleep). */
    void
    advance(Time delta)
    {
        if (kernel_)
            kernel_->advance(delta);
        else
            events_.advance(delta);
    }

    /**
     * Run until @p pred holds or @p limit. Single-queue mode polls after
     * each event; island mode polls at every window barrier.
     * @return true if the predicate was satisfied.
     */
    bool
    runUntil(const std::function<bool()>& pred, Time limit = Time::max())
    {
        return kernel_ ? kernel_->runUntil(pred, limit)
                       : events_.runUntil(pred, limit);
    }

    /** Run until the event queue(s) drain (or @p limit). */
    bool
    drain(Time limit = Time::max())
    {
        return kernel_ ? kernel_->run(limit) : events_.run(limit);
    }

    /** Completions delivered across every node's CQs, summed. */
    std::uint64_t totalCompletions() const;

    /**
     * Run until the cluster-wide completion count reaches @p target —
     * the trigger-based fast path for the most common runUntil shape.
     *
     * In island mode this registers one monotone per-node trigger
     * counter with the kernel (cluster code owns the kernel's trigger
     * set) and exits via runUntilTriggered(): satisfaction is detected
     * inside the worker pass right after the crossing window retires,
     * instead of re-polling every CQ at each quiesce. Stop time, trace
     * hash and oracle verdicts are bit-identical to the polling
     * equivalent `runUntil([&]{ return totalCompletions() >= target; })`
     * at any jobs count and schedule mode. Single-queue mode uses
     * exactly that polling equivalent (its goldens are untouched).
     * @return true if the target was reached.
     */
    bool runUntilCompletions(std::uint64_t target,
                             Time limit = Time::max());

    /** Events executed so far (summed over islands when sharded). */
    std::uint64_t
    eventsExecuted() const
    {
        return kernel_ ? kernel_->executed() : events_.executed();
    }

    /**
     * A full diagnostic dump: fabric counters, per-node driver/board
     * statistics, and aggregate QP transport statistics. The first thing
     * to read when a run behaves strangely.
     */
    std::string report();

    /**
     * Aggregate port-event/recovery counters over every node's RNIC —
     * the degradation summary the flood bench prints next to its
     * throughput numbers (all zero unless a PortEventDriver ran).
     */
    struct PortEventSummary
    {
        std::uint64_t portDownEvents = 0;
        std::uint64_t portUpEvents = 0;
        std::uint64_t reroutes = 0;
        std::uint64_t qpsEnteredError = 0;
        std::uint64_t qpsRecovered = 0;
        std::uint64_t staleEpochDrops = 0;
        std::uint64_t cmRearmsSent = 0;
        /** Fabric-side drops at port/link-down gates. */
        std::uint64_t gateDrops = 0;
    };

    PortEventSummary portEventSummary();

    /**
     * Create and connect a pair of RC QPs between two nodes.
     * Both ends use @p config and complete into the given CQs.
     */
    std::pair<verbs::QueuePair, verbs::QueuePair>
    connectRc(Node& a, verbs::CompletionQueue& cq_a, Node& b,
              verbs::CompletionQueue& cq_b, verbs::QpConfig config = {});

  private:
    EventQueue events_;
    Rng rng_;
    rnic::DeviceProfile defaultProfile_;
    std::uint64_t seed_;
    /**
     * Island mode. kernel_ is created before fabric_ sees any traffic
     * and destroyed after the nodes (member order below): nodes schedule
     * into island queues, so the queues must outlive them. islandRngs_
     * is a deque — Node holds Rng& and deque growth never moves elements.
     */
    std::unique_ptr<ShardedKernel> kernel_;
    std::deque<Rng> islandRngs_;
    net::Fabric fabric_;
    std::vector<std::unique_ptr<Node>> nodes_;
    std::uint16_t nextLid_ = 1;
    /** Nodes whose completion trigger is registered with the kernel
     * (runUntilCompletions tops this up lazily; node i == island i). */
    std::size_t nodesWithTriggers_ = 0;
};

} // namespace ibsim

#endif // IBSIM_CLUSTER_CLUSTER_HH
