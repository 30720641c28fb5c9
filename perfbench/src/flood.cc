/**
 * @file
 * The `flood` workload: the paper's Fig. 9 client-side-ODP point. On
 * the KNL ConnectX-4 profile, 8192 x 100-B READs are posted back to back
 * over 200 QPs with the UCX-default QP config, into a client buffer
 * registered on demand. Every response DMA faults, so the requester
 * floods blind retransmissions (hundreds of packets per READ) while the
 * ODP status board fails updates. Driven with Cluster and verbs calls so
 * that posting, advancing and the completion wait are timed apart.
 */

#include <random>

#include "bench.hh"
#include "layers.hh"
#include "pitfall/microbench.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace ibsim;

class Flood : public Workload
{
  public:
    explicit Flood(Scale scale)
        : ops_(scale == Scale::Full ? 8192 : 2048),
          qps_(scale == Scale::Full ? 200 : 200)
    {
    }

    const char* name() const override { return "flood"; }

    double tracedPerSecond() const override { return 0.6; }

    ScenarioResult run(std::uint64_t seed, Counters* counters) override;

  private:
    static constexpr std::uint32_t kSize = 100;
    /** Fig. 9b: client-side ODP floods hundreds of packets per READ. */
    static constexpr double kMinPktsPerWr = 100;

    std::size_t ops_;
    std::size_t qps_;
};

ScenarioResult
Flood::run(std::uint64_t seed, Counters* counters)
{
    // Inputs: the cluster seed, the host-side gaps between posts (a
    // pipelined ~300 ns post, +-30%) and the server's buffer contents.
    std::mt19937_64 rng(seed);
    const std::uint64_t clusterSeed = rng();
    std::uniform_int_distribution<std::int64_t> gapNs(210, 390);
    std::vector<Time> gaps(ops_);
    for (Time& g : gaps)
        g = Time::fromNs(gapNs(rng));
    const std::uint64_t bytes = ops_ * kSize;
    std::vector<std::uint8_t> fill(bytes);
    for (auto& b : fill)
        b = static_cast<std::uint8_t>(rng());

    ScenarioResult out;
    const auto t0 = Clock::now();

    std::unique_ptr<Cluster> cluster;
    {
        Span s("cluster.build");
        cluster = std::make_unique<Cluster>(rnic::DeviceProfile::knl(), 2,
                                            clusterSeed);
    }
    Node& client = cluster->node(0);
    Node& server = cluster->node(1);
    std::uint64_t local = 0;
    std::uint64_t remote = 0;
    {
        Span s("mem.alloc");
        local = client.alloc(bytes);
        remote = server.alloc(bytes);
    }
    {
        Span s("mem.write");
        server.memory().write(remote, fill);
    }
    verbs::MemoryRegion* cmr = nullptr;
    verbs::MemoryRegion* smr = nullptr;
    {
        Span s("verbs.register_mr");
        cmr = &client.registerMemory(local, bytes, verbs::AccessFlags::odp());
    }
    {
        Span s("verbs.register_mr");
        smr = &server.registerMemory(remote, bytes,
                                     verbs::AccessFlags::pinned());
    }
    verbs::CompletionQueue* ccq = nullptr;
    verbs::CompletionQueue* scq = nullptr;
    {
        Span s("verbs.create_cq");
        ccq = &client.createCq();
        scq = &server.createCq();
    }
    std::vector<verbs::QueuePair> qps;
    qps.reserve(qps_);
    for (std::size_t q = 0; q < qps_; ++q) {
        Span s("verbs.connect_rc");
        qps.push_back(cluster
                          ->connectRc(client, *ccq, server, *scq,
                                      pitfall::MicroBenchConfig::
                                          ucxDefaultConfig())
                          .first);
    }
    const auto t1 = Clock::now();

    const std::uint64_t allocs0 = allocCount();
    if (counters)
        setAllocCounting(true);
    for (std::size_t i = 0; i < ops_; ++i) {
        verbs::QueuePair& qp = qps[i % qps_];
        timedCall("verbs.post_read", [&] {
            qp.postRead(local + kSize * i, cmr->lkey(), remote + kSize * i,
                        smr->rkey(), kSize, i);
        });
        timedCall("cluster.advance", [&] { cluster->advance(gaps[i]); });
    }
    bool drained = false;
    {
        Span s("cluster.wait");
        drained = cluster->runUntilCompletions(ops_,
                                               cluster->now() + Time::sec(600));
    }
    setAllocCounting(false);
    const auto t2 = Clock::now();

    // Checks: every READ succeeded, the client buffer holds the server's
    // bytes, and the flood amplified the traffic as in Fig. 9b.
    out.det = clusterRecord(*cluster);
    out.packets = out.det.packets;
    const double pktsPerWr =
        static_cast<double>(out.packets) / static_cast<double>(ops_);
    if (!drained || ccq->totalSuccess() != ops_ || ccq->totalErrors() != 0)
        out.failure = "flood: " + std::to_string(ccq->totalSuccess()) +
                      " of " + std::to_string(ops_) + " READs succeeded";
    else if (client.memory().read(local, bytes) != fill)
        out.failure = "flood: client buffer differs from the server's";
    else if (pktsPerWr < kMinPktsPerWr)
        out.failure = "flood: only " + std::to_string(pktsPerWr) +
                      " packets per READ, expected a flood";

    if (counters) {
        addClusterCounters(*cluster, *counters);
        counters->add("host.allocs",
                      static_cast<double>(allocCount() - allocs0));
        counters->add("host.run_s", secondsBetween(t1, t2));
        counters->add("verbs.error_completions",
                      static_cast<double>(ccq->totalErrors()));
        counters->add("rnic.wrs_posted", static_cast<double>(ops_));
        counters->add("cluster.total_completions_ns",
                      totalCompletionsNs(*cluster));
    }

    const auto t3 = Clock::now();
    {
        Span s("cluster.teardown");
        qps.clear();
        cluster.reset();
    }
    const auto t4 = Clock::now();
    out.setupS = secondsBetween(t0, t1);
    out.wallS = secondsBetween(t0, t2) + secondsBetween(t3, t4);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeFlood(Scale scale)
{
    return std::make_unique<Flood>(scale);
}

} // namespace perfbench
