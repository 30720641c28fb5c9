/**
 * @file
 * Reading a finished scenario's cluster through the public stats()
 * accessors: its determinism record and its per-layer counters.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include "bench.hh"
#include "cluster/cluster.hh"

namespace perfbench {

/** events, packets, retransmissions, faults raised and completions. */
DetRecord clusterRecord(ibsim::Cluster& cluster);

/**
 * Add the simcore, net, rnic, odp, mem and cluster counters of
 * @p cluster to @p c (names as in BENCHMARK.json's per_layer list).
 */
void addClusterCounters(ibsim::Cluster& cluster, Counters& c);

/** Mean host ns of one public Cluster::totalCompletions() call. */
double totalCompletionsNs(ibsim::Cluster& cluster);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
