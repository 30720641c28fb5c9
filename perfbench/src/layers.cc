#include "layers.hh"

#include <algorithm>
#include <numeric>

namespace perfbench {

using ibsim::Cluster;

DetRecord
clusterRecord(Cluster& cluster)
{
    DetRecord r;
    r.events = cluster.eventsExecuted();
    r.packets = cluster.fabric().totalSent();
    r.completions = cluster.totalCompletions();
    for (std::size_t n = 0; n < cluster.nodeCount(); ++n) {
        ibsim::Node& node = cluster.node(n);
        r.faults += node.driver().stats().faultsRaised;
        for (const auto* qp : node.rnic().allQps())
            r.retransmissions += qp->stats.retransmissions;
    }
    return r;
}

void
addClusterCounters(Cluster& cluster, Counters& c)
{
    const auto& fabric = cluster.fabric();
    const double packets = static_cast<double>(fabric.totalSent());
    c.add("simcore.events", static_cast<double>(cluster.eventsExecuted()));
    c.add("net.packets", packets);
    // In island mode each lane owns a private pool the public API does
    // not expose, so these read the single-queue pool only.
    const auto& pool = fabric.packetPool().stats();
    c.add("net.pool_acquires", static_cast<double>(pool.acquires));
    c.add("net.pool_grows", static_cast<double>(pool.grows));
    c.peak("net.pool_peak_in_flight",
           static_cast<double>(pool.peakInFlight));
    c.add("net.gate_drops",
          static_cast<double>(fabric.totalPortEventDrops()));

    for (std::size_t n = 0; n < cluster.nodeCount(); ++n) {
        ibsim::Node& node = cluster.node(n);
        for (const auto* qp : node.rnic().allQps()) {
            const auto& s = qp->stats;
            c.add("rnic.requests_sent", static_cast<double>(s.requestsSent));
            c.add("rnic.retransmissions",
                  static_cast<double>(s.retransmissions));
            c.add("rnic.timeouts", static_cast<double>(s.timeouts));
            c.add("rnic.seq_naks", static_cast<double>(s.seqNaksReceived));
            c.add("rnic.rnr_naks", static_cast<double>(s.rnrNaksReceived));
            c.add("rnic.dammed_drops", static_cast<double>(s.dammedDrops));
            c.add("rnic.discarded_fault",
                  static_cast<double>(s.responsesDiscardedFault));
        }
        const auto& rs = node.rnic().stats();
        c.add("rnic.qps_error", static_cast<double>(rs.qpsEnteredError));
        c.add("rnic.qps_recovered", static_cast<double>(rs.qpsRecovered));

        const auto& d = node.driver().stats();
        c.add("odp.faults_raised", static_cast<double>(d.faultsRaised));
        c.add("odp.faults_coalesced", static_cast<double>(d.faultsCoalesced));
        c.add("odp.invalidations", static_cast<double>(d.invalidations));
        c.add("odp.fault_retries", static_cast<double>(d.faultRetries));
        c.add("odp.queued_behind_window",
              static_cast<double>(d.faultsQueuedBehindWindow));
        c.add("odp.notifier_windows", static_cast<double>(d.notifierWindows));
        const auto& b = node.board().stats();
        c.add("odp.board_prompt_updates", static_cast<double>(b.promptUpdates));
        c.add("odp.board_update_failures",
              static_cast<double>(b.updateFailures));
        c.add("odp.board_slow_refreshes", static_cast<double>(b.slowRefreshes));

        c.add("mem.present_pages",
              static_cast<double>(node.memory().presentPages()));
        c.add("verbs.completions",
              static_cast<double>(node.totalCompletions()));
    }

    if (ibsim::ShardedKernel* kernel = cluster.shardedKernel()) {
        const auto ks = kernel->kernelStats();
        c.add("simcore.rounds", static_cast<double>(ks.barriers));
        c.add("simcore.channel_parcels",
              static_cast<double>(ks.channelParcels));
        c.add("simcore.steals", static_cast<double>(ks.steals));
        if (!ks.workerBusyFraction.empty())
            c.add("simcore.worker_busy_mean",
                  std::accumulate(ks.workerBusyFraction.begin(),
                                  ks.workerBusyFraction.end(), 0.0) /
                      static_cast<double>(ks.workerBusyFraction.size()));
        if (!ks.executedPerIsland.empty()) {
            const double total = static_cast<double>(
                std::accumulate(ks.executedPerIsland.begin(),
                                ks.executedPerIsland.end(),
                                std::uint64_t{0}));
            const double mean =
                total / static_cast<double>(ks.executedPerIsland.size());
            if (mean > 0)
                c.add("simcore.island_imbalance",
                      static_cast<double>(ks.maxIslandExecuted) / mean);
        }
        c.peak("simcore.ready_queue_depth_max",
               static_cast<double>(ks.maxReadyQueueDepth));
    }
}

double
totalCompletionsNs(Cluster& cluster)
{
    constexpr int calls = 1000;
    std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i)
        sink += cluster.totalCompletions();
    const double ns = secondsBetween(t0, Clock::now()) * 1e9 / calls;
    // Keep the loop observable so it cannot be folded away.
    asm volatile("" : : "r"(sink) : "memory");
    return ns;
}

} // namespace perfbench
