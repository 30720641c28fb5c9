/**
 * @file
 * perfbench_runner: runs one benchmark workload (or all of them, one
 * after another) and prints its metrics; see perfbench/README.md.
 *
 *   perfbench_runner --workload flood|damming|mesh_storm|all
 *                    --seed N --seconds S --trace 0|1
 *                    [--scale full|smoke] [--trace-prefix P]
 *                    [--source-id ID]
 *
 * Untraced (--trace 0): an untimed warm-up, then scenarios one at a time
 * until S seconds have passed; prints the end-to-end metrics. Traced
 * (--trace 1): a fixed number of scenario pairs, each run once untraced
 * and once with spans, counters and the allocation counter on; prints
 * the per-layer metrics and writes the spans as Chrome trace JSON to
 * P<workload>.json.
 * Either way the last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench.hh"
#include "report.hh"
#include "trace.hh"

namespace perfbench {

namespace {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    Scale scale = Scale::Full;
    std::string tracePrefix = "perfbench_trace_";
    std::string sourceId = "unknown";
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload flood|damming|"
                 "mesh_storm|all --seed N --seconds S --trace 0|1\n"
                 "       [--scale full|smoke] [--trace-prefix P] "
                 "[--source-id ID]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            o.workload = v;
        } else if (flag == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
            if (*end != '\0' || v.empty())
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
            if (*end != '\0' || !(o.seconds > 0) || o.seconds > 3600)
                usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            o.trace = v == "1";
        } else if (flag == "--scale") {
            if (v != "full" && v != "smoke")
                usage("--scale takes full or smoke");
            o.scale = v == "smoke" ? Scale::Smoke : Scale::Full;
        } else if (flag == "--trace-prefix") {
            o.tracePrefix = v;
        } else if (flag == "--source-id") {
            o.sourceId = v;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

std::unique_ptr<Workload>
makeWorkload(const std::string& name, Scale scale)
{
    if (name == "flood")
        return makeFlood(scale);
    if (name == "damming")
        return makeDamming(scale);
    if (name == "mesh_storm")
        return makeMeshStorm(scale);
    return nullptr;
}

/** Counts checked scenarios and reports the first few failures. */
class Checker
{
  public:
    void
    check(const ScenarioResult& r, std::uint64_t index)
    {
        ++attempted_;
        if (!r.failure.empty())
            fail("scenario " + std::to_string(index) + ": " + r.failure);
    }

    void
    fail(const std::string& why)
    {
        if (++failed_ <= 10)
            std::fprintf(stderr, "FAILED %s\n", why.c_str());
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * A fixed-capacity reservoir of per-scenario timings: percentiles stay
 * unbiased however many scenarios fit the window, and its memory is
 * allocated and touched up front, so peak RSS does not grow with speed.
 */
class Samples
{
  public:
    struct Row
    {
        double setupS;
        double runS;
        double wallS;
        double pktsPerS;
    };

    Samples() : rows_(kCapacity) {}

    void
    add(const Row& row)
    {
        ++seen_;
        if (kept_ < kCapacity) {
            rows_[kept_++] = row;
        } else {
            const std::uint64_t j = rng_() % seen_;
            if (j < kCapacity)
                rows_[j] = row;
        }
    }

    std::vector<double>
    column(double Row::*field) const
    {
        std::vector<double> out;
        out.reserve(kept_);
        for (std::size_t i = 0; i < kept_; ++i)
            out.push_back(rows_[i].*field);
        return out;
    }

    std::size_t size() const { return kept_; }

  private:
    static constexpr std::size_t kCapacity = std::size_t{1} << 18;
    std::vector<Row> rows_;
    std::size_t kept_ = 0;
    std::uint64_t seen_ = 0;
    std::mt19937_64 rng_{0x5eed};
};

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
};

std::string
fingerprint(const Workload& w, const Options& o)
{
    return "nproc=" + std::to_string(onlineCpus()) +
           " compiler=\"" PERFBENCH_COMPILER "\" build=" PERFBENCH_BUILD_TYPE
           " source=" + o.sourceId + " " + w.fingerprint();
}

/** Untimed warm-up plus the reference self-check; returns the records. */
std::vector<DetRecord>
warmUp(Workload& w, const Options& o, Checker& chk)
{
    std::vector<DetRecord> warm;
    for (std::size_t i = 0; i < w.warmupScenarios(); ++i) {
        const ScenarioResult r =
            w.run(scenarioSeed(o.seed, w.name(), i), nullptr);
        chk.check(r, i);
        warm.push_back(r.det);
    }
    if (auto ref = w.referenceRecord(scenarioSeed(o.seed, w.name(), 0))) {
        std::printf("det %s reference scenario=0 %s\n", w.name(),
                    ref->str().c_str());
        if (*ref != warm[0])
            chk.fail(std::string(w.name()) +
                     ": reference configuration disagrees with scenario 0: " +
                     ref->str() + " vs " + warm[0].str());
    }
    return warm;
}

void
checkRepeat(const Workload& w, Checker& chk, const std::vector<DetRecord>& warm,
            std::uint64_t i, const DetRecord& det, const char* what)
{
    if (i < warm.size() && det != warm[i])
        chk.fail(std::string(w.name()) + ": scenario " + std::to_string(i) +
                 " " + what + " disagrees with its warm-up run: " + det.str() +
                 " vs " + warm[i].str());
}

/** The scenario's determinism record, then its host times. */
void
printRecord(const Workload& w, std::uint64_t i, const ScenarioResult& r)
{
    if (i < 32)
        std::printf("det %s scenario=%llu %s | setup_ms=%.3f wall_ms=%.3f\n",
                    w.name(), static_cast<unsigned long long>(i),
                    r.det.str().c_str(), r.setupS * 1e3, r.wallS * 1e3);
}

Outcome
runUntraced(Workload& w, const Options& o)
{
    Checker chk;
    const std::vector<DetRecord> warm = warmUp(w, o, chk);

    Samples samples;
    double wallSum = 0;
    std::uint64_t n = 0;
    std::uint64_t digest = 0;
    const auto start = Clock::now();
    while (n == 0 || secondsBetween(start, Clock::now()) < o.seconds) {
        const ScenarioResult r =
            w.run(scenarioSeed(o.seed, w.name(), n), nullptr);
        chk.check(r, n);
        checkRepeat(w, chk, warm, n, r.det, "repeated");
        printRecord(w, n, r);
        digest = r.det.fold(digest);
        const double runS = r.wallS - r.setupS;
        samples.add({r.setupS, runS, r.wallS,
                     static_cast<double>(r.packets) / runS});
        wallSum += r.wallS;
        ++n;
    }
    std::printf("det %s digest=0x%016llx over %llu scenarios\n", w.name(),
                static_cast<unsigned long long>(digest),
                static_cast<unsigned long long>(n));

    auto setup = samples.column(&Samples::Row::setupS);
    auto run = samples.column(&Samples::Row::runS);
    auto wall = samples.column(&Samples::Row::wallS);
    auto rate = samples.column(&Samples::Row::pktsPerS);
    // The tail is the highest percentile with at least ten samples beyond
    // it, capped at p99: p99 on damming, near p78 on a 45-scenario run,
    // where a literal p99 would be the single slowest scenario.
    const double tailQ = std::clamp(
        1.0 - 10.0 / static_cast<double>(samples.size()), 0.5, 0.99);
    Outcome out;
    out.attempted = chk.attempted();
    out.failed = chk.failed();
    out.metrics = {
        {"setup_s", quantile(setup, 0.5), "s"},
        {"run_s", quantile(run, 0.5), "s"},
        {"sim_pkts_per_s", quantile(rate, 0.5), "1/s"},
        {"scenarios_per_s", static_cast<double>(n) / wallSum, "1/s"},
        {"scenario_us_p50", quantile(wall, 0.5) * 1e6, "us"},
        {"scenario_us_p99", quantile(wall, tailQ) * 1e6, "us"},
        {"peak_rss_mb", peakRssMb(), "MiB"},
    };
    std::printf("%s: %llu timed scenarios; percentiles over %zu samples, "
                "scenario_us_p99 taken at p%.1f\n",
                w.name(), static_cast<unsigned long long>(n), samples.size(),
                tailQ * 100);
    return out;
}

std::vector<Metric>
layerMetrics(const Tracer& t, const Counters& c, double k, double overhead)
{
    const auto total = [&](const char* name) {
        auto it = t.byName().find(name);
        return it == t.byName().end() ? 0.0
                                      : static_cast<double>(it->second.totalNs);
    };
    const auto calls = [&](const char* name) {
        auto it = t.byName().find(name);
        return it == t.byName().end() ? 0.0
                                      : static_cast<double>(it->second.count);
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const auto mean = [&](const char* name) { return c.sum(name) / k; };
    const double pkts = c.sum("net.packets");
    const double events = c.sum("simcore.events");
    const double prompt = c.sum("odp.board_prompt_updates");
    const double posts = calls("verbs.post_read") + calls("verbs.post_write");

    std::vector<Metric> m = {
        {"simcore.events", mean("simcore.events"), "count"},
        {"simcore.events_per_pkt", ratio(events, pkts), "count"},
        {"simcore.ns_per_event", ratio(c.sum("host.run_s") * 1e9, events),
         "ns"},
        {"host.allocs_per_pkt", ratio(c.sum("host.allocs"), pkts), "count"},
        {"simcore.rounds", mean("simcore.rounds"), "count"},
        {"simcore.channel_parcels", mean("simcore.channel_parcels"), "count"},
        {"simcore.steals", mean("simcore.steals"), "count"},
        {"simcore.worker_busy_mean", mean("simcore.worker_busy_mean"), "frac"},
        {"simcore.island_imbalance", mean("simcore.island_imbalance"), "ratio"},
        {"simcore.ready_queue_depth_max",
         c.max("simcore.ready_queue_depth_max"), "count"},
        {"cluster.total_completions_ns", mean("cluster.total_completions_ns"),
         "ns"},
        {"cluster.wait_s", total("cluster.wait") / k / 1e9, "s"},
        {"cluster.advance_ns",
         ratio(total("cluster.advance"), calls("cluster.advance")), "ns"},
        {"cluster.build_ms", total("cluster.build") / k / 1e6, "ms"},
        {"cluster.teardown_ms", total("cluster.teardown") / k / 1e6, "ms"},
        {"net.packets", mean("net.packets"), "count"},
        {"net.pool_acquires", mean("net.pool_acquires"), "count"},
        {"net.pool_peak_in_flight", c.max("net.pool_peak_in_flight"), "count"},
        {"net.pool_grows", mean("net.pool_grows"), "count"},
        {"net.gate_drops", mean("net.gate_drops"), "count"},
        {"rnic.requests_sent", mean("rnic.requests_sent"), "count"},
        {"rnic.retransmissions", mean("rnic.retransmissions"), "count"},
        {"rnic.rexmit_ratio",
         ratio(c.sum("rnic.retransmissions"), c.sum("rnic.requests_sent")),
         "ratio"},
        {"rnic.pkts_per_wr", ratio(pkts, c.sum("rnic.wrs_posted")), "count"},
        {"rnic.timeouts", mean("rnic.timeouts"), "count"},
        {"rnic.seq_naks", mean("rnic.seq_naks"), "count"},
        {"rnic.rnr_naks", mean("rnic.rnr_naks"), "count"},
        {"rnic.dammed_drops", mean("rnic.dammed_drops"), "count"},
        {"rnic.discarded_fault", mean("rnic.discarded_fault"), "count"},
        {"rnic.qps_error", mean("rnic.qps_error"), "count"},
        {"rnic.qps_recovered", mean("rnic.qps_recovered"), "count"},
        {"odp.faults_raised", mean("odp.faults_raised"), "count"},
        {"odp.faults_coalesced", mean("odp.faults_coalesced"), "count"},
        {"odp.board_prompt_updates", mean("odp.board_prompt_updates"), "count"},
        {"odp.board_update_failures", mean("odp.board_update_failures"),
         "count"},
        {"odp.board_update_success_ratio",
         ratio(prompt, prompt + c.sum("odp.board_update_failures")), "ratio"},
        {"odp.board_slow_refreshes", mean("odp.board_slow_refreshes"), "count"},
        {"odp.invalidations", mean("odp.invalidations"), "count"},
        {"odp.fault_retries", mean("odp.fault_retries"), "count"},
        {"odp.queued_behind_window", mean("odp.queued_behind_window"), "count"},
        {"odp.notifier_windows", mean("odp.notifier_windows"), "count"},
        {"mem.present_pages", mean("mem.present_pages"), "count"},
        {"mem.touch_us", total("mem.touch") / k / 1e3, "us"},
        {"verbs.post_ns",
         ratio(total("verbs.post_read") + total("verbs.post_write"), posts),
         "ns"},
        {"verbs.register_mr_us",
         ratio(total("verbs.register_mr"), calls("verbs.register_mr")) / 1e3,
         "us"},
        {"verbs.connect_rc_us",
         ratio(total("verbs.connect_rc"), calls("verbs.connect_rc")) / 1e3,
         "us"},
        {"verbs.completions", mean("verbs.completions"), "count"},
        {"verbs.error_completions", mean("verbs.error_completions"), "count"},
        {"chaos.watch_all_ms", total("chaos.watch_all") / k / 1e6, "ms"},
        {"chaos.final_check_ms", total("chaos.final_check") / k / 1e6, "ms"},
        {"chaos.packets_observed", mean("chaos.packets_observed"), "count"},
        {"chaos.violations", mean("chaos.violations"), "count"},
        {"chaos.injected_dups", mean("chaos.injected_dups"), "count"},
        {"chaos.injected_delays", mean("chaos.injected_delays"), "count"},
        {"chaos.link_flaps", mean("chaos.link_flaps"), "count"},
        {"chaos.storm_pages_invalidated", mean("chaos.storm_pages_invalidated"),
         "count"},
        {"capture.packets", mean("capture.packets"), "count"},
        {"pitfall.detect_us",
         ratio(total("pitfall.detect_damming"),
               calls("pitfall.detect_damming")) / 1e3,
         "us"},
        {"pitfall.timeout_frac", mean("pitfall.timeouts"), "frac"},
        {"pitfall.sim_exec_ms", mean("pitfall.sim_exec_s") * 1e3, "ms"},
        {"trace.overhead_frac", overhead, "frac"},
    };
    for (const char* layer : {"cluster", "verbs", "mem", "chaos", "pitfall"})
        m.push_back({std::string(layer) + ".self_ms",
                     static_cast<double>(t.layerSelfNs(layer)) / k / 1e6,
                     "ms"});
    return m;
}

Outcome
runTraced(Workload& w, const Options& o)
{
    Checker chk;
    const std::vector<DetRecord> warm = warmUp(w, o, chk);

    const auto k = static_cast<std::uint64_t>(
        std::max(1.0, std::round(o.seconds * w.tracedPerSecond())));
    Tracer tracer(100000);
    Counters counters;
    std::vector<double> plainRun, tracedRun;
    for (std::uint64_t i = 0; i < k; ++i) {
        const std::uint64_t seed = scenarioSeed(o.seed, w.name(), i);
        ScenarioResult plain, traced;
        const auto runPlain = [&] {
            plain = w.run(seed, nullptr);
            chk.check(plain, i);
            plainRun.push_back(plain.wallS - plain.setupS);
        };
        const auto runTraced = [&] {
            g_tracer = &tracer;
            tracer.setScenario(i);
            tracer.begin("bench.scenario");
            traced = w.run(seed, &counters);
            tracer.end();
            g_tracer = nullptr;
            chk.check(traced, i);
            tracedRun.push_back(traced.wallS - traced.setupS);
        };
        // Alternate which side runs first so drift cancels out.
        if (i % 2 == 0) {
            runPlain();
            runTraced();
        } else {
            runTraced();
            runPlain();
        }
        printRecord(w, i, traced);
        checkRepeat(w, chk, warm, i, traced.det, "traced");
        if (plain.det != traced.det)
            chk.fail(std::string(w.name()) + ": scenario " + std::to_string(i) +
                     " traced and untraced runs disagree: " +
                     traced.det.str() + " vs " + plain.det.str());
    }

    const double overhead =
        quantile(tracedRun, 0.5) / quantile(plainRun, 0.5) - 1.0;
    Outcome out;
    out.attempted = chk.attempted();
    out.failed = chk.failed();
    out.metrics = layerMetrics(tracer, counters, static_cast<double>(k),
                               overhead);

    std::printf("%s: %llu traced scenarios; span self time by name:\n",
                w.name(), static_cast<unsigned long long>(k));
    for (const auto& [name, st] : tracer.byName())
        std::printf("  %-28s calls=%-10llu total_ms=%-12.3f self_ms=%.3f\n",
                    name.c_str(), static_cast<unsigned long long>(st.count),
                    static_cast<double>(st.totalNs) / 1e6,
                    static_cast<double>(st.selfNs) / 1e6);
    const std::string other = "{\"workload\": " + jsonString(w.name()) +
                              ", \"seed\": " + std::to_string(o.seed) +
                              ", \"scenarios\": " + std::to_string(k) +
                              ", \"env\": " + jsonString(fingerprint(w, o)) +
                              "}";
    const std::string path = o.tracePrefix + w.name() + ".json";
    if (tracer.writeChrome(path, other))
        std::printf("spans written to %s\n", path.c_str());
    else
        chk.fail("cannot write " + path);
    out.failed = chk.failed();
    return out;
}

} // namespace

} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    const Options o = parseArgs(argc, argv);

    std::vector<std::string> names;
    if (o.workload == "all")
        names = {"flood", "damming", "mesh_storm"};
    else
        names = {o.workload};

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> all;
    for (const std::string& name : names) {
        std::unique_ptr<Workload> w = makeWorkload(name, o.scale);
        if (!w)
            usage(("unknown workload " + name).c_str());
        std::printf("# workload=%s seed=%llu seconds=%g trace=%d %s\n",
                    name.c_str(), static_cast<unsigned long long>(o.seed),
                    o.seconds, o.trace ? 1 : 0, fingerprint(*w, o).c_str());
        std::fflush(stdout);
        const Outcome out = o.trace ? runTraced(*w, o) : runUntraced(*w, o);
        attempted += out.attempted;
        failed += out.failed;
        std::printf("%s metrics:\n%s  %-34s %16.6g frac (%llu of %llu)\n",
                    name.c_str(), formatTable(out.metrics).c_str(),
                    "failed_frac",
                    static_cast<double>(out.failed) /
                        static_cast<double>(out.attempted),
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted));
        for (const Metric& m : out.metrics)
            all.push_back(
                {names.size() > 1 ? name + "." + m.name : m.name, m.value,
                 m.unit});
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metricsJson(all).c_str());
    return 0;
}
