/**
 * @file
 * The `mesh_storm` workload: the combined-storm soak scaled up. 64
 * nodes in island mode on the default Stealing/ReadyQueue scheduler,
 * 32 RC pairs of 16 QPs each on the recovery-enabled ConnectX-4 profile
 * with the per-page ODP state machine on. Rounds alternate 128-B WRITEs
 * and READs into server-side ODP regions under 2% duplicates, 5% delays,
 * a chain of flapping links and CombinedStormStage invalidation storms
 * on every eighth responder, audited by the invariant oracle attached
 * with watchAll() before the first post. Pair 0 runs a tight retry
 * budget over a long-outage link, so its QPs go through Error and
 * re-arm; their flush errors are expected, not failures.
 */

#include <random>

#include "bench.hh"
#include "chaos/chaos_engine.hh"
#include "chaos/invariant_monitor.hh"
#include "chaos/port_events.hh"
#include "layers.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace ibsim;

/**
 * One scenario's simulator objects, declared in construction order: the
 * implicit destructor tears them down in reverse, the cluster last.
 */
struct Mesh
{
    std::unique_ptr<Cluster> cluster;
    std::unique_ptr<chaos::ChaosEngine> engine;
    std::unique_ptr<chaos::Topology> topo;
    std::unique_ptr<chaos::InvariantMonitor> monitor;
    std::unique_ptr<chaos::CombinedStormStage> storm;
};

class MeshStorm : public Workload
{
  public:
    explicit MeshStorm(Scale scale)
        : nodes_(scale == Scale::Full ? 64 : 16),
          qpsPerPair_(scale == Scale::Full ? 16 : 4),
          rounds_(scale == Scale::Full ? 64 : 8),
          jobs_(std::min(4u, onlineCpus()))
    {
    }

    const char* name() const override { return "mesh_storm"; }

    double tracedPerSecond() const override { return 0.3; }

    ScenarioResult
    run(std::uint64_t seed, Counters* counters) override
    {
        return runAt(seed, jobs_, counters);
    }

    std::optional<DetRecord>
    referenceRecord(std::uint64_t seed) override
    {
        return runAt(seed, 1, nullptr).det;
    }

    std::string
    fingerprint() const override
    {
        return "jobs=" + std::to_string(jobs_);
    }

  private:
    ScenarioResult runAt(std::uint64_t seed, unsigned jobs,
                         Counters* counters);

    static constexpr std::uint64_t kBufBytes = 64 * 1024;
    static constexpr std::uint32_t kSize = 128;

    std::size_t nodes_;
    std::size_t qpsPerPair_;
    std::size_t rounds_;
    unsigned jobs_;
};

rnic::DeviceProfile
recoveryProfile()
{
    auto profile = rnic::DeviceProfile::connectX4();
    profile.qpRecoveryOnPortUp = true;
    profile.minCack = 5;  // T_tr ~131 us instead of the vendor ~268 ms
    profile.faultTiming.pageStateMachine = true;
    return profile;
}

ScenarioResult
MeshStorm::runAt(std::uint64_t seed, unsigned jobs, Counters* counters)
{
    // Inputs: the cluster, chaos, topology and storm seeds and the
    // host-side gap after each posting round.
    std::mt19937_64 rng(seed);
    const std::uint64_t clusterSeed = rng();
    const std::uint64_t chaosSeed = rng();
    std::uniform_int_distribution<std::int64_t> gapNs(20000, 80000);
    std::vector<Time> gaps(rounds_);
    for (Time& g : gaps)
        g = Time::fromNs(gapNs(rng));
    const std::size_t pairs = nodes_ / 2;

    ScenarioResult out;
    const auto t0 = Clock::now();
    auto m = std::make_unique<Mesh>();
    {
        Span s("cluster.build");
        ClusterOptions options;
        options.sharded = true;
        options.jobs = jobs;
        m->cluster = std::make_unique<Cluster>(recoveryProfile(), nodes_,
                                              clusterSeed, net::LinkConfig{},
                                              options);
    }
    Cluster& cluster = *m->cluster;
    {
        Span s("chaos.attach_engine");
        chaos::ChaosConfig cfg;
        cfg.seed = chaosSeed;
        cfg.dupRate = 0.02;
        cfg.delayRate = 0.05;
        m->engine = std::make_unique<chaos::ChaosEngine>(cluster.events(), cfg);
        // A chain of flapping links over the mesh; pair 0's link gets
        // long outages that exhaust its QPs' tight retry budget.
        m->topo = std::make_unique<chaos::Topology>(nodes_, chaosSeed);
        for (std::uint16_t lid = 1; lid < nodes_; ++lid)
            m->topo->setLinkPlan(lid, lid + 1, {Time::us(800), Time::us(150)});
        m->topo->setLinkPlan(1, 2, {Time::ms(2), Time::ms(4)});
        m->engine->attachPortEvents(*m->topo);
        m->engine->installSharded(cluster.fabric());
    }
    {
        Span s("chaos.attach_monitor");
        m->monitor =
            std::make_unique<chaos::InvariantMonitor>(cluster.fabric());
    }

    struct Pair
    {
        std::vector<verbs::QueuePair> qps;
        verbs::CompletionQueue* reqCq = nullptr;
        verbs::CompletionQueue* rspCq = nullptr;
        std::uint64_t src = 0;
        std::uint64_t dst = 0;
        verbs::MemoryRegion* srcMr = nullptr;
        verbs::MemoryRegion* dstMr = nullptr;
    };
    std::vector<Pair> pr(pairs);
    for (std::size_t k = 0; k < pairs; ++k) {
        Pair& p = pr[k];
        Node& cli = cluster.node(2 * k);
        Node& srv = cluster.node(2 * k + 1);
        {
            Span s("verbs.create_cq");
            p.reqCq = &cli.createCq();
            p.rspCq = &srv.createCq();
        }
        verbs::QpConfig config;
        config.cack = k == 0 ? 5 : 8;
        config.cretry = k == 0 ? 1 : 7;
        for (std::size_t q = 0; q < qpsPerPair_; ++q) {
            Span s("verbs.connect_rc");
            p.qps.push_back(
                cluster.connectRc(cli, *p.reqCq, srv, *p.rspCq, config).first);
        }
        {
            Span s("mem.alloc");
            p.src = cli.alloc(kBufBytes);
            p.dst = srv.alloc(kBufBytes);
        }
        {
            Span s("mem.touch");
            cli.touch(p.src, kBufBytes);
            srv.touch(p.dst, kBufBytes);
        }
        {
            Span s("verbs.register_mr");
            p.srcMr = &cli.registerMemory(p.src, kBufBytes,
                                          verbs::AccessFlags::pinned());
        }
        {
            Span s("verbs.register_mr");
            p.dstMr = &srv.registerMemory(p.dst, kBufBytes,
                                          verbs::AccessFlags::odp());
        }
    }
    {
        Span s("chaos.watch_all");
        m->monitor->watchAll(cluster);
    }
    {
        Span s("chaos.attach_storm");
        chaos::CombinedStormConfig stormCfg;
        stormCfg.seed = chaosSeed;
        stormCfg.tickInterval = Time::us(50);
        stormCfg.duration = Time::ms(50);
        stormCfg.pagesPerBurst = 2;
        stormCfg.squeezeCapacity = 48;
        m->storm = std::make_unique<chaos::CombinedStormStage>(
            cluster.fabric(), *m->topo, stormCfg);
        for (std::size_t k = 0; k < pairs; k += 8) {
            Node& srv = cluster.node(2 * k + 1);
            m->storm->addTarget(srv.lid(), srv.driver(), pr[k].dstMr->table(),
                               pr[k].dst, kBufBytes, *pr[k].rspCq);
        }
        m->storm->start();
    }
    const auto t1 = Clock::now();

    const std::uint64_t allocs0 = allocCount();
    if (counters)
        setAllocCounting(true);
    // Each QP owns 256-B slots: WRITEs land in the first half of the
    // pair's buffers, READs come from the second half.
    std::uint64_t posted = 0;
    for (std::size_t i = 0; i < rounds_; ++i) {
        for (std::size_t k = 0; k < pairs; ++k) {
            Pair& p = pr[k];
            for (std::size_t q = 0; q < qpsPerPair_; ++q) {
                const std::uint64_t off =
                    ((i / 2 * qpsPerPair_ + q) * 256) % (kBufBytes / 2);
                if (i % 2 == 0)
                    timedCall("verbs.post_write", [&] {
                        p.qps[q].postWrite(p.src + off, p.srcMr->lkey(),
                                           p.dst + off, p.dstMr->rkey(), kSize,
                                           i + 1);
                    });
                else
                    timedCall("verbs.post_read", [&] {
                        p.qps[q].postRead(p.src + kBufBytes / 2 + off,
                                          p.srcMr->lkey(),
                                          p.dst + kBufBytes / 2 + off,
                                          p.dstMr->rkey(), kSize, i + 1);
                    });
                ++posted;
            }
        }
        timedCall("cluster.advance", [&] { cluster.advance(gaps[i]); });
    }
    bool drained = false;
    {
        Span s("cluster.wait");
        drained = cluster.runUntil(
            [&] {
                for (const Pair& p : pr)
                    for (const auto& qp : p.qps)
                        if (qp.outstanding() != 0)
                            return false;
                return true;
            },
            cluster.now() + Time::sec(600));
        cluster.advance(Time::ms(10));
    }
    {
        Span s("chaos.final_check");
        m->monitor->finalCheck();
    }
    setAllocCounting(false);
    const auto t2 = Clock::now();

    // Checks: the run drained, the oracle saw no violation and every
    // posted WR completed exactly once (success or flush error).
    out.det = clusterRecord(cluster);
    out.det.traceHash = m->monitor->traceHash();
    out.packets = out.det.packets;
    std::uint64_t completions = 0;
    std::uint64_t errors = 0;
    for (const Pair& p : pr) {
        completions += p.reqCq->totalCompletions();
        errors += p.reqCq->totalErrors();
    }
    if (!drained)
        out.failure = "mesh_storm: requesters did not drain";
    else if (!m->monitor->clean())
        out.failure = "mesh_storm: oracle violations:\n" + m->monitor->report();
    else if (completions != posted)
        out.failure = "mesh_storm: " + std::to_string(completions) +
                      " completions for " + std::to_string(posted) + " WRs";

    if (counters) {
        addClusterCounters(cluster, *counters);
        counters->add("host.allocs",
                      static_cast<double>(allocCount() - allocs0));
        counters->add("host.run_s", secondsBetween(t1, t2));
        counters->add("rnic.wrs_posted", static_cast<double>(posted));
        counters->add("verbs.error_completions", static_cast<double>(errors));
        counters->add("cluster.total_completions_ns",
                      totalCompletionsNs(cluster));
        counters->add("chaos.packets_observed",
                      static_cast<double>(m->monitor->packetsObserved()));
        counters->add("chaos.violations",
                      static_cast<double>(m->monitor->violationCount()));
        const auto inj = m->engine->shardedStats();
        counters->add("chaos.injected_dups",
                      static_cast<double>(inj.duplicated));
        counters->add("chaos.injected_delays",
                      static_cast<double>(inj.delayed));
        counters->add(
            "chaos.link_flaps",
            static_cast<double>(m->engine->portEvents()->linkFlaps()));
        counters->add("chaos.storm_pages_invalidated",
                      static_cast<double>(m->storm->stats().pagesInvalidated));
    }

    const auto t3 = Clock::now();
    {
        Span s("cluster.teardown");
        pr.clear();
        m.reset();
    }
    const auto t4 = Clock::now();
    out.setupS = secondsBetween(t0, t1);
    out.wallS = secondsBetween(t0, t2) + secondsBetween(t3, t4);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeMeshStorm(Scale scale)
{
    return std::make_unique<MeshStorm>(scale);
}

} // namespace perfbench
