/**
 * @file
 * Island-count scalability smoke: the raw sharded kernel at 1000+
 * islands.
 *
 * The cluster benches stop at 64 machines x a few planes; ROADMAP's
 * north star ("as fast as the hardware allows") also needs the *kernel
 * itself* to stay cheap when the topology is three orders of magnitude
 * wider than the set of islands that actually have work. This bench
 * drives a fixed population of ping-pong message pairs across up to
 * 1024 islands — no RNIC, no fabric, just EventQueues, channel clocks
 * and a minimal BarrierAgent — and reports wall-clock ns per executed
 * event.
 *
 * The kernel has one scheduler: each round, every live connected
 * component of the edge graph (here: one ping-pong pair, or one idle
 * island) runs whole on one worker, homed by component index and stolen
 * whole by idle workers (DESIGN.md §12.e). The `sched` axis keeps its
 * single value `ready` — the label of the default scheduler's rows
 * since the axis was introduced — so the committed baseline rows keep
 * matching; it now names that component scheduler.
 *
 * The pair count does not grow with the topology, so at 1024 islands
 * only a small fraction of islands is runnable in any window. Idle
 * islands have no declared edges, so each is its own component whose
 * round-start bound lies past every round limit: it finishes at
 * dispatch and is never run — its entire cost is the dispatch loop.
 *
 * islands=1024 is the row the CI gate watches: its jobs=4 cell must
 * beat the jobs=1 reference (speedup_vs_seq >= 1.0 in
 * check_bench_regression.py), and its ns_per_item trend is recorded in
 * BENCH_simcore.json.
 */

#include "suite.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <vector>

#include "simcore/cross_channel.hh"
#include "simcore/sharded_kernel.hh"

using namespace ibsim;

namespace ibsim {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

struct ScaleResult
{
    std::uint64_t events = 0;
    double wallNs = 0;
    bool completed = false;
    std::uint64_t rounds = 0;
    std::uint64_t roundsSkipped = 0;
    std::uint64_t steals = 0;
    std::uint64_t readyDepth = 0;
    std::uint64_t drainAborts = 0;
};

/**
 * Deterministic per-event compute (splitmix64 rounds): stands in for
 * the RNIC datapath work a real island does per event, so the jobs
 * axis measures scheduling against a realistic work grain instead of
 * bare counter increments.
 */
std::uint64_t
mixWork(std::uint64_t x, unsigned iters)
{
    for (unsigned k = 0; k < iters; ++k) {
        x += 0x9e3779b97f4a7c15ull;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebull;
        x ^= x >> 31;
    }
    return x;
}

/**
 * The synthetic workload: disjoint island pairs ping-ponging a message
 * one lookahead per hop, each hop doing one mixWork grain and
 * forwarding its running state — so the checksum over all pairs is
 * schedule-invariant and any lost or duplicated hop shows up as
 * completed=0. Pairs are independent (their channel clocks reference
 * only each other), so jobs=4 has min(4, pairs)-way parallelism.
 */
struct PingAgent : ShardedKernel::BarrierAgent
{
    struct Msg
    {
        std::int64_t at = 0;
        std::uint32_t hops = 0;
        std::uint64_t state = 0;
    };
    using Channel = CrossChannel<Msg>;

    PingAgent(ShardedKernel& kernel, std::vector<std::size_t> partner,
              unsigned work_iters)
        : kernel_(kernel), partner_(std::move(partner)),
          workIters_(work_iters), in_(kernel.islandCount())
    {
        kernel.addBarrierAgent(this);
    }

    ~PingAgent() { kernel_.removeBarrierAgent(this); }

    /** Bounce one message from @p from to its partner island. */
    void
    hop(std::size_t from, std::uint32_t hops, std::uint64_t state)
    {
        const std::size_t to = partner_[from];
        const Time at = kernel_.island(from).now() + kernel_.lookahead();
        // One channel per destination: the sole producer is the
        // partner island, so push order (and thus the run) is
        // deterministic at any worker count.
        in_[to].push(at.toNs(), Msg{at.toNs(), hops, state});
    }

    std::uint64_t
    flushInbound(std::size_t island, Time /*now*/, Time horizon) override
    {
        std::vector<Msg> batch;
        in_[island].drainUpTo(
            horizon.toNs(), [](const Msg& m) { return m.at; }, batch);
        for (const Msg& m : batch) {
            kernel_.island(island).schedule(
                Time::fromNs(m.at), [this, island, m] {
                    received_.fetch_add(1, std::memory_order_relaxed);
                    const std::uint64_t next =
                        mixWork(m.state, workIters_);
                    checksum_.fetch_xor(next,
                                        std::memory_order_relaxed);
                    if (m.hops > 0)
                        hop(island, m.hops - 1, next);
                });
        }
        return batch.size();
    }

    Time
    inboundEarliest(std::size_t island) override
    {
        const std::int64_t k = in_[island].minKey();
        return k == Channel::kEmpty ? Time::max() : Time::fromNs(k);
    }

    std::size_t
    inboundPending(std::size_t island) override
    {
        return in_[island].size();
    }

    ShardedKernel& kernel_;
    const std::vector<std::size_t> partner_;
    const unsigned workIters_;
    /** in_[dst]; deque because CrossChannel must never move. */
    std::deque<Channel> in_;
    std::atomic<std::uint64_t> received_{0};
    std::atomic<std::uint64_t> checksum_{0};
};

ScaleResult
runScaleTrial(std::size_t islands, unsigned jobs, std::uint64_t seed)
{
    // 32 pairs regardless of topology size: at 64 islands every island
    // is busy, at 1024 only 6% are — the idle share grows with the axis
    // while the event count (and thus ns_per_item's denominator) stays
    // constant.
    constexpr std::uint32_t kPairs = 32;
    constexpr std::uint32_t kHops = 384;
    constexpr unsigned kWorkIters = 400;

    ShardedKernel kernel(Time::us(1), jobs);
    for (std::size_t i = 0; i < islands; ++i)
        kernel.addIsland();
    // Pairs spread evenly over the islands; only pair members get
    // edges — idle islands have no in-neighbors and form their own
    // components.
    std::vector<std::size_t> partner(islands, 0);
    std::vector<std::size_t> left(kPairs);
    for (std::uint32_t p = 0; p < kPairs; ++p) {
        const std::size_t a = (islands * p) / kPairs;
        const std::size_t b = a + 1 < islands ? a + 1 : 0;
        left[p] = a;
        partner[a] = b;
        partner[b] = a;
        kernel.declareEdge(a, b);
        kernel.declareEdge(b, a);
    }
    PingAgent ring(kernel, std::move(partner), kWorkIters);

    // Staggered pseudo-random (seed-deterministic) starts inside the
    // first window so pairs do not run in lockstep.
    for (std::uint32_t p = 0; p < kPairs; ++p) {
        const std::size_t at = left[p];
        const std::uint64_t mix = (p * 2654435761u + seed) % 900;
        kernel.island(at).schedule(
            Time::ns(static_cast<std::int64_t>(mix)),
            [&ring, at, p, seed] { ring.hop(at, kHops, p ^ seed); });
    }

    const auto start = Clock::now();
    const bool drained = kernel.run(Time::sec(1));
    const auto stop = Clock::now();

    const std::uint64_t expected =
        static_cast<std::uint64_t>(kPairs) * (kHops + 1);
    ScaleResult result;
    result.events = kernel.executed();
    result.wallNs =
        static_cast<double>(std::chrono::duration_cast<
                                std::chrono::nanoseconds>(stop - start)
                                .count());
    result.completed =
        drained &&
        ring.received_.load(std::memory_order_relaxed) == expected;
    const auto ks = kernel.kernelStats();
    result.rounds = ks.barriers;
    result.roundsSkipped = ks.roundsSkipped;
    result.steals = ks.steals;
    result.readyDepth = ks.maxReadyQueueDepth;
    result.drainAborts = ks.drainAborts;
    return result;
}

/** Same env-override idiom as bench_flood_capacity's axisFromEnv. */
std::vector<double>
axisFromEnv(const char* name, std::vector<double> fallback)
{
    const char* raw = std::getenv(name);
    if (raw == nullptr || *raw == '\0')
        return fallback;
    std::vector<double> out;
    char* cursor = nullptr;
    for (double v = std::strtod(raw, &cursor); cursor != raw;
         v = std::strtod(raw, &cursor)) {
        out.push_back(v);
        raw = *cursor == ',' ? cursor + 1 : cursor;
    }
    return out.empty() ? fallback : out;
}

} // namespace

void
registerScaleSmoke(exp::Registry& registry)
{
    registry.add(
        {"scale_smoke",
         "sharded-kernel scheduler cost at 64..1024 islands",
         [](const exp::RunContext& ctx) {
             const std::size_t trials = ctx.trials(3, 1);

             exp::RunContext local = ctx;
             if (local.jsonPath.empty() &&
                 std::getenv("IBSIM_JSON") == nullptr) {
                 local.jsonPath = "BENCH_simcore.json";
             }

             exp::Sweep sweep;
             sweep
                 .axis("islands",
                       axisFromEnv("IBSIM_SCALE_ISLANDS",
                                   {64.0, 256.0, 1024.0}),
                       0)
                 .axis("sched", std::vector<std::string>{"ready"})
                 .axis("jobs",
                       axisFromEnv("IBSIM_SCALE_JOBS", {1.0, 4.0}), 0);

             auto result = local.runner("scale_smoke").run(
                 sweep, trials,
                 [](const exp::Cell& cell, std::uint64_t seed) {
                     const auto islands =
                         static_cast<std::size_t>(cell.num("islands"));
                     const auto jobs =
                         static_cast<unsigned>(cell.num("jobs"));
                     const ScaleResult r =
                         runScaleTrial(islands, jobs, seed);
                     const double perEvent =
                         r.events > 0
                             ? r.wallNs / static_cast<double>(r.events)
                             : 0.0;
                     return exp::Metrics{}
                         .set("ns_per_item", perEvent)
                         .set("events_k",
                              static_cast<double>(r.events) / 1e3)
                         .set("rounds", static_cast<double>(r.rounds))
                         .set("rounds_skipped",
                              static_cast<double>(r.roundsSkipped))
                         .set("steals", static_cast<double>(r.steals))
                         .set("ready_depth",
                              static_cast<double>(r.readyDepth))
                         .set("drain_aborts",
                              static_cast<double>(r.drainAborts))
                         .set("completed", r.completed ? 1.0 : 0.0);
                 });

             auto sink = local.sink("scale_smoke");
             sink.table(
                 "Scheduler cost on a synthetic 64..1024-island "
                 "topology (wall clock)",
                 result,
                 {exp::col("ns_per_item", exp::Stat::Mean, 1, "ns/event"),
                  exp::col("events_k", exp::Stat::Mean, 1, "events_k"),
                  exp::col("rounds", exp::Stat::Mean, 0, "rounds"),
                  exp::col("rounds_skipped", exp::Stat::Mean, 0,
                           "skipped"),
                  exp::col("steals", exp::Stat::Mean, 0, "steals"),
                  exp::col("ready_depth", exp::Stat::Mean, 0, "ready_q"),
                  exp::col("completed", exp::Stat::Mean, 2,
                           "completed")});
             sink.note(
                 "Raw ShardedKernel, no RNIC datapath: 32 island pairs "
                 "ping-ponging a message,\none lookahead per hop with a "
                 "fixed compute grain per event; islands without "
                 "a\npair are idle. sched=ready is the component "
                 "scheduler (each pair runs whole on\none worker per "
                 "round). At islands=1024 the rows are the CI "
                 "scalability\ngate (jobs=4 must beat jobs=1).");
         }});
}

} // namespace bench
} // namespace ibsim
