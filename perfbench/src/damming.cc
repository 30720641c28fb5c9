/**
 * @file
 * The `damming` workload: many Fig. 4/6/7-style MicroBenchmark trials
 * on two nodes with server-side ODP and capture on. Each trial picks a
 * ConnectX-4 or ConnectX-6 profile, posts 2-8 READs 0-6 ms apart and
 * runs detectDamming over the capture. A trial costs microseconds of
 * host time and fewer than 100 events, so construction, registration,
 * connection, teardown, capture and the detector dominate, while the
 * ~0.5 s simulated RC timeouts exercise the event queue's overflow tier.
 */

#include <random>

#include "bench.hh"
#include "layers.hh"
#include "pitfall/detectors.hh"
#include "pitfall/microbench.hh"
#include "trace.hh"

namespace perfbench {

namespace {

using namespace ibsim;

class Damming : public Workload
{
  public:
    explicit Damming(Scale scale) : warmup_(scale == Scale::Full ? 2000 : 50)
    {
    }

    const char* name() const override { return "damming"; }

    std::size_t warmupScenarios() const override { return warmup_; }

    double tracedPerSecond() const override { return 15000; }

    ScenarioResult run(std::uint64_t seed, Counters* counters) override;

  private:
    /**
     * The ConnectX-4 pending period at the 1.28 ms minimum RNR delay
     * (the Fig. 6a plateau): it opens once the first READ's RNR NAK is
     * back and closes when the requester's 3.5 x 1.28 ms (-8% jitter)
     * RNR wait ends. A trial whose later READs are all posted inside it
     * must dam; one READ posted after it recovers the dammed ones by a
     * PSN sequence error instead (Fig. 7/8), so no timeout is required.
     */
    static constexpr double kWindowOpenMs = 0.25;
    static constexpr double kWindowCloseMs = 4.0;

    std::size_t warmup_;
};

ScenarioResult
Damming::run(std::uint64_t seed, Counters* counters)
{
    std::mt19937_64 rng(seed);
    const bool cx4 = (rng() & 1) != 0;
    pitfall::MicroBenchConfig config;
    config.numOps = 2 + rng() % 7;
    config.interval = Time::fromNs(static_cast<std::int64_t>(rng() % 6000001));
    config.odpMode = pitfall::OdpMode::ServerSide;
    config.capture = true;
    const std::uint64_t clusterSeed = rng();

    ScenarioResult out;
    auto t1 = Clock::now();
    const auto t0 = Clock::now();
    std::unique_ptr<pitfall::MicroBenchmark> bench;
    {
        Span s("cluster.build");
        bench = std::make_unique<pitfall::MicroBenchmark>(
            config,
            cx4 ? rnic::DeviceProfile::connectX4()
                : rnic::DeviceProfile::connectX6(),
            clusterSeed);
    }
    // Set-up ends where MicroBenchmark hands over its connected QPs.
    std::uint64_t allocs0 = 0;
    bench->setQpReadyHook([&] {
        t1 = Clock::now();
        if (g_tracer) {
            g_tracer->end();
            g_tracer->begin("pitfall.run_loop");
        }
        if (counters) {
            allocs0 = allocCount();
            setAllocCounting(true);
        }
    });
    if (g_tracer)
        g_tracer->begin("pitfall.run_setup");
    const pitfall::MicroBenchResult r = bench->run();
    if (g_tracer)
        g_tracer->end();
    std::vector<pitfall::DammingEvent> incidents;
    {
        Span s("pitfall.detect_damming");
        incidents = pitfall::detectDamming(*bench->packetCapture());
    }
    setAllocCounting(false);
    const auto t2 = Clock::now();

    // Checks: the detector fires exactly when a transport timeout did,
    // ConnectX-6 never dams, and ConnectX-4 dams inside the plateau.
    out.det = clusterRecord(bench->cluster());
    out.packets = out.det.packets;
    const double intervalMs = config.interval.toSec() * 1e3;
    const std::string what =
        std::string(cx4 ? "CX4" : "CX6") + " ops=" +
        std::to_string(config.numOps) +
        " interval_ms=" + std::to_string(intervalMs);
    if (!r.completedAll || r.qpError)
        out.failure = "damming: trial did not complete (" + what + ")";
    else if (incidents.empty() == r.timedOut())
        out.failure = "damming: detector disagrees with " +
                      std::to_string(r.timeouts) + " timeouts (" + what + ")";
    else if (!cx4 && r.timedOut())
        out.failure = "damming: ConnectX-6 trial dammed (" + what + ")";
    else if (cx4 && intervalMs >= kWindowOpenMs &&
             intervalMs * static_cast<double>(config.numOps - 1) <=
                 kWindowCloseMs &&
             !r.timedOut())
        out.failure = "damming: ConnectX-4 trial inside the pending window "
                      "did not dam (" + what + ")";

    if (counters) {
        addClusterCounters(bench->cluster(), *counters);
        counters->add("capture.packets",
                      static_cast<double>(bench->packetCapture()->size()));
        counters->add("pitfall.timeouts", r.timedOut() ? 1.0 : 0.0);
        counters->add("pitfall.sim_exec_s", r.executionTime.toSec());
        counters->add("rnic.wrs_posted", static_cast<double>(config.numOps));
        counters->add("host.allocs",
                      static_cast<double>(allocCount() - allocs0));
        counters->add("host.run_s", secondsBetween(t1, t2));
        counters->add("verbs.error_completions", r.qpError ? 1.0 : 0.0);
    }

    const auto t3 = Clock::now();
    {
        Span s("cluster.teardown");
        bench.reset();
    }
    const auto t4 = Clock::now();
    out.setupS = secondsBetween(t0, t1);
    out.wallS = secondsBetween(t0, t2) + secondsBetween(t3, t4);
    return out;
}

} // namespace

std::unique_ptr<Workload>
makeDamming(Scale scale)
{
    return std::make_unique<Damming>(scale);
}

} // namespace perfbench
