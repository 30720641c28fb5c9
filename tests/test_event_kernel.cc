/**
 * @file
 * Differential stress tests of the event kernel.
 *
 * The timer-wheel kernel must execute the exact event sequence — same
 * times, same insertion-order tie-breaks — as a trivially-correct sorted
 * reference implementation, under randomized schedule/cancel/advance
 * interleavings whose delays span every tier (due window, all four wheel
 * levels, overflow heap). A second test drives the flood workload shape
 * (mass schedule/cancel churn) and asserts the node pool stays bounded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "chaos/invariant_monitor.hh"
#include "cluster/cluster.hh"
#include "simcore/cross_channel.hh"
#include "simcore/event_queue.hh"
#include "simcore/rng.hh"
#include "simcore/sharded_kernel.hh"
#include "simcore/time.hh"

using namespace ibsim;

namespace {

/**
 * The kernel's contract in its simplest possible form: a flat list,
 * executed in (when, seq) order, with lazy cancellation. O(n) per event,
 * obviously correct.
 */
class ReferenceQueue
{
  public:
    std::uint64_t
    schedule(std::int64_t when)
    {
        events_.push_back(Ev{when, nextSeq_++, nextId_++, false});
        return events_.back().id;
    }

    bool
    cancel(std::uint64_t id)
    {
        for (auto& e : events_) {
            if (e.id == id) {
                if (e.cancelled)
                    return false;
                e.cancelled = true;
                return true;
            }
        }
        return false;  // already executed (record erased) or never existed
    }

    /** Execute everything due at or before @p target, recording (when, id). */
    void
    advanceTo(std::int64_t target,
              std::vector<std::pair<std::int64_t, std::uint64_t>>& out)
    {
        for (;;) {
            std::size_t best = events_.size();
            for (std::size_t i = 0; i < events_.size(); ++i) {
                if (events_[i].cancelled)
                    continue;
                if (best == events_.size() ||
                    events_[i].when < events_[best].when ||
                    (events_[i].when == events_[best].when &&
                     events_[i].seq < events_[best].seq)) {
                    best = i;
                }
            }
            if (best == events_.size() || events_[best].when > target)
                break;
            out.emplace_back(events_[best].when, events_[best].id);
            events_.erase(events_.begin() +
                          static_cast<std::ptrdiff_t>(best));
        }
        // Drop cancelled records that the sweep has passed, mirroring the
        // real kernel reclaiming them (keeps cancel() of executed ids
        // answering false, not true).
        events_.erase(std::remove_if(events_.begin(), events_.end(),
                                     [target](const Ev& e) {
                                         return e.cancelled &&
                                                e.when <= target;
                                     }),
                      events_.end());
    }

    std::size_t
    pending() const
    {
        std::size_t n = 0;
        for (const auto& e : events_)
            n += e.cancelled ? 0 : 1;
        return n;
    }

  private:
    struct Ev
    {
        std::int64_t when;
        std::uint64_t seq;
        std::uint64_t id;
        bool cancelled;
    };

    std::vector<Ev> events_;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t nextId_ = 1;
};

/** A delay spanning due window, every wheel level, and the overflow tier. */
std::int64_t
tierSpanningDelay(Rng& rng)
{
    const double u = rng.uniform(0, 1);
    if (u < 0.35)
        return rng.uniformInt(0, 2000);  // due window / wheel level 0
    if (u < 0.65)
        return rng.uniformInt(0, 2000000);  // levels 0-1
    if (u < 0.85)
        return rng.uniformInt(0, 2000000000);  // levels 2-3
    return rng.uniformInt(0, 20000000000);  // beyond horizon: overflow
}

} // namespace

TEST(EventKernelStress, MatchesReferenceUnderRandomInterleaving)
{
    for (const std::uint64_t seed : {11u, 23u, 47u, 101u}) {
        Rng rng(seed);
        EventQueue q;
        ReferenceQueue ref;
        std::vector<std::pair<std::int64_t, std::uint64_t>> got;
        std::vector<std::pair<std::int64_t, std::uint64_t>> want;
        // Handles of every event ever scheduled (executed ones included,
        // so cancel-after-execute gets exercised too).
        std::vector<std::pair<EventHandle, std::uint64_t>> issued;
        std::int64_t now = 0;

        for (int op = 0; op < 8000; ++op) {
            const double roll = rng.uniform(0, 1);
            if (roll < 0.55) {
                const std::int64_t when = now + tierSpanningDelay(rng);
                const std::uint64_t id = ref.schedule(when);
                EventHandle h = q.schedule(
                    Time::ns(when),
                    [&q, &got, id] {
                        got.emplace_back(q.now().toNs(), id);
                    });
                issued.emplace_back(h, id);
            } else if (roll < 0.8 && !issued.empty()) {
                const auto pick = static_cast<std::size_t>(rng.uniformInt(
                    0, static_cast<int>(issued.size()) - 1));
                EXPECT_EQ(q.cancel(issued[pick].first),
                          ref.cancel(issued[pick].second));
            } else {
                const std::int64_t delta =
                    rng.uniformInt(0, 50000000);  // up to 50 ms
                now += delta;
                q.advance(Time::ns(delta));
                ref.advanceTo(now, want);
                ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
            }
            if (op % 97 == 0) {
                ASSERT_EQ(q.pending(), ref.pending()) << "seed " << seed;
            }
        }

        // Drain both completely.
        q.run();
        ref.advanceTo(std::numeric_limits<std::int64_t>::max(), want);
        ASSERT_EQ(got, want) << "seed " << seed;
        EXPECT_EQ(q.pending(), 0u);
        EXPECT_EQ(ref.pending(), 0u);
    }
}

TEST(EventKernelStress, FloodChurnKeepsPoolBounded)
{
    // The flood workload shape: every cycle arms a ~1 ms retransmission
    // timer, delivers a packet ~2 us later and cancels the timer. The
    // cancelled timers are reaped when the wheel sweeps past their slot,
    // so the pool's high-water mark stays proportional to the number of
    // events in flight over one timer window — it must not grow with the
    // number of cycles (the old kernel's cancelled_ set did).
    EventQueue q;
    int delivered = 0;
    for (int cycle = 0; cycle < 50000; ++cycle) {
        EventHandle timer = q.scheduleAfter(Time::ms(1), [] {
            ADD_FAILURE() << "cancelled timer fired";
        });
        q.scheduleAfter(Time::us(2), [&delivered] { ++delivered; });
        q.advance(Time::us(2));
        EXPECT_TRUE(q.cancel(timer));
    }
    EXPECT_EQ(delivered, 50000);
    const auto stats = q.kernelStats();
    // One 1 ms window holds ~500 cycles x 2 events; leave generous slack
    // but stay orders of magnitude below the 100k events scheduled.
    EXPECT_LE(stats.poolNodes, 4096u);
    q.run();
    EXPECT_EQ(q.pending(), 0u);
}

// =====================================================================
// ShardedKernel: the conservative-lookahead island scheduler.
// =====================================================================

namespace {

/** Per-island execution record — each island appends only its own
 * vector, so recording is race-free at any worker count. */
using IslandTrace = std::vector<std::pair<std::int64_t, int>>;

/** The per-island traces plus the deterministic kernel counters. */
struct TwoIslandRun
{
    std::vector<IslandTrace> traces;
    std::uint64_t windows = 0;
    std::uint64_t channelParcels = 0;
    std::uint64_t idleIslandRounds = 0;
};

/**
 * Run a fixed two-island workload (interleaved timestamps, some inside
 * one lookahead window, some spanning several) and return the per-island
 * traces and counters. The workload is identical for every jobs value;
 * the traces and counters must be too.
 */
TwoIslandRun
runTwoIslandWorkload(unsigned jobs)
{
    ShardedKernel kernel(Time::us(1), jobs);
    const std::size_t i0 = kernel.addIsland();
    const std::size_t i1 = kernel.addIsland();
    std::vector<IslandTrace> traces(2);

    const auto record = [&](std::size_t island, int tag) {
        traces[island].emplace_back(
            kernel.island(island).now().toNs(), tag);
    };
    int tag = 0;
    for (const std::int64_t ns :
         {0L, 100L, 100L, 950L, 1000L, 2500L, 2500L, 9999L, 10000L}) {
        for (const std::size_t island : {i0, i1}) {
            const int t = tag++;
            kernel.island(island).schedule(
                Time::ns(ns), [&record, island, t] { record(island, t); });
        }
    }
    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(kernel.pending(), 0u);
    EXPECT_EQ(kernel.executed(), 18u);
    const auto ks = kernel.kernelStats();
    EXPECT_GT(ks.windows, 1u);  // 0..10000 ns cannot fit one 1 us window
    EXPECT_EQ(ks.executedPerIsland.size(), 2u);
    EXPECT_EQ(ks.executedPerIsland[0] + ks.executedPerIsland[1],
              kernel.executed());
    return {traces, ks.windows, ks.channelParcels, ks.idleIslandRounds};
}

} // namespace

TEST(ShardedKernel, WindowedRunMatchesTimestampOrderPerIsland)
{
    const auto traces = runTwoIslandWorkload(1).traces;
    ASSERT_EQ(traces.size(), 2u);
    for (const IslandTrace& trace : traces) {
        ASSERT_EQ(trace.size(), 9u);
        for (std::size_t i = 1; i < trace.size(); ++i) {
            EXPECT_LE(trace[i - 1].first, trace[i].first);
            // Equal timestamps keep insertion order (tags ascend).
            if (trace[i - 1].first == trace[i].first)
                EXPECT_LT(trace[i - 1].second, trace[i].second);
        }
    }
}

TEST(ShardedKernel, TracesAreBitIdenticalAcrossWorkerCounts)
{
    const auto reference = runTwoIslandWorkload(1);
    // jobs is clamped to the island count, so 4 and 8 exercise the
    // clamp.
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        const TwoIslandRun run = runTwoIslandWorkload(jobs);
        EXPECT_EQ(run.traces, reference.traces) << "jobs=" << jobs;
        EXPECT_EQ(run.windows, reference.windows) << "jobs=" << jobs;
        EXPECT_EQ(run.channelParcels, reference.channelParcels)
            << "jobs=" << jobs;
        EXPECT_EQ(run.idleIslandRounds, reference.idleIslandRounds)
            << "jobs=" << jobs;
    }
}

TEST(ShardedKernel, SingleIslandTopologyDegeneratesToSequential)
{
    // One island: the channel clocks are a no-op (no in-neighbors, safe
    // horizon = infinity) and any jobs count clamps to one worker.
    ShardedKernel kernel(Time::us(1), 4);
    kernel.addIsland();
    std::vector<std::int64_t> fired;
    for (const std::int64_t ns : {0L, 1L, 999L, 1000L, 7777L, 50000L}) {
        kernel.island(0).schedule(Time::ns(ns), [&fired, ns] {
            fired.push_back(ns);
        });
    }
    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(kernel.jobs(), 1u);
    EXPECT_EQ(fired,
              (std::vector<std::int64_t>{0, 1, 999, 1000, 7777, 50000}));
    EXPECT_EQ(kernel.kernelStats().channelParcels, 0u);
}

TEST(ShardedKernel, ZeroDelaySelfLinksNeedNoLookahead)
{
    // The lookahead bounds *cross-island* influence only: an island
    // feeding events back to itself with zero delay (a self-link) is
    // plain same-queue scheduling and must neither violate the window
    // contract nor stall the other island.
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        int chain = 0;
        std::function<void()> self = [&] {
            if (++chain < 100)
                kernel.island(0).schedule(kernel.island(0).now(), [&] {
                    self();
                });
        };
        kernel.island(0).schedule(Time::ns(500), [&] { self(); });
        bool other = false;
        kernel.island(1).schedule(Time::ns(500), [&other] {
            other = true;
        });
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(chain, 100);
        EXPECT_TRUE(other);
    }
}

TEST(ShardedKernel, IslandWithoutInNeighborsNeverBlocks)
{
    // Declaring only 0 -> 1 leaves island 0 with no in-neighbors: its
    // safe horizon is unbounded and it must run to its own limit even
    // while island 1 (which must wait on 0's clock) has earlier work.
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        kernel.declareEdge(0, 1);
        EXPECT_TRUE(kernel.hasEdge(0, 1));
        EXPECT_FALSE(kernel.hasEdge(1, 0));
        std::uint64_t ran0 = 0, ran1 = 0;
        for (int i = 0; i < 64; ++i) {
            kernel.island(0).schedule(Time::us(100 + i),
                                      [&ran0] { ++ran0; });
            kernel.island(1).schedule(Time::ns(10 * i),
                                      [&ran1] { ++ran1; });
        }
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(ran0, 64u);
        EXPECT_EQ(ran1, 64u);
        EXPECT_EQ(kernel.pending(), 0u);
    }
}

TEST(ShardedKernel, EdgeDeclarationsSurviveInterleavedIslandGrowth)
{
    // The cluster layer interleaves island creation with edge
    // declarations (add a node pair, connect its QPs, add the next
    // pair, ...). Growing the edge matrix must preserve everything
    // declared before the growth — wiping it would leave earlier
    // destination islands with no in-neighbors, letting them run ahead
    // of their producers (a causality violation, not just a test fail).
    ShardedKernel kernel(Time::us(1), 2);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareEdge(0, 1);
    kernel.declareEdge(1, 0);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareEdge(2, 3);
    kernel.declareEdge(3, 2);
    EXPECT_TRUE(kernel.hasEdge(0, 1));
    EXPECT_TRUE(kernel.hasEdge(1, 0));
    EXPECT_TRUE(kernel.hasEdge(2, 3));
    EXPECT_TRUE(kernel.hasEdge(3, 2));
    EXPECT_FALSE(kernel.hasEdge(0, 2));
    EXPECT_FALSE(kernel.hasEdge(3, 1));
}

TEST(ShardedKernel, DenseIslandCoversIslandsAddedLater)
{
    // A dense island (UD: destinations named per work request) must stay
    // connected to islands created after the declaration too — a UD QP
    // can address a node that did not exist when the QP was made.
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    kernel.addIsland();
    kernel.declareDense(0);
    kernel.addIsland();
    EXPECT_TRUE(kernel.hasEdge(0, 2));
    EXPECT_TRUE(kernel.hasEdge(2, 0));
    EXPECT_TRUE(kernel.hasEdge(0, 1));
    EXPECT_FALSE(kernel.hasEdge(1, 2));  // neither is dense, no edge
}

TEST(ShardedKernel, RunWithLimitAtPendingEventExecutesIt)
{
    // limit == the earliest pending event is a degenerate round (the
    // round limit equals the synchronized clock). The window holding the
    // event must still execute — EventQueue::run()'s events-at-limit-run
    // semantics — rather than every island reporting an empty round done
    // and the kernel spinning forever.
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    bool fired = false;
    kernel.island(0).schedule(Time(), [&fired] { fired = true; });
    EXPECT_TRUE(kernel.run(Time()));
    EXPECT_TRUE(fired);

    // Same shape mid-run: the clocks already sit exactly at the limit.
    kernel.run(Time::us(3));
    bool again = false;
    kernel.island(0).schedule(Time::us(3), [&again] { again = true; });
    EXPECT_TRUE(kernel.run(Time::us(3)));
    EXPECT_TRUE(again);
}

TEST(ShardedKernel, AdvanceLeavesEveryIslandClockAtTarget)
{
    ShardedKernel kernel(Time::us(5), 2);
    kernel.addIsland();
    kernel.addIsland();
    kernel.addIsland();
    bool fired = false;
    kernel.island(1).schedule(Time::us(3), [&fired] { fired = true; });

    kernel.advance(Time::us(1));
    EXPECT_EQ(kernel.now(), Time::us(1));
    EXPECT_FALSE(fired);

    kernel.advance(Time::us(9));
    EXPECT_TRUE(fired);
    EXPECT_EQ(kernel.now(), Time::us(10));
    for (std::size_t i = 0; i < kernel.islandCount(); ++i)
        EXPECT_EQ(kernel.island(i).now(), Time::us(10)) << "island " << i;
}

TEST(ShardedKernel, RunUntilChecksPredicateAtBarriers)
{
    ShardedKernel kernel(Time::us(1), 1);
    kernel.addIsland();
    kernel.addIsland();
    int count = 0;
    for (int i = 1; i <= 20; ++i)
        kernel.island(i % 2).schedule(Time::us(i),
                                      [&count] { ++count; });

    EXPECT_TRUE(kernel.runUntil([&count] { return count >= 5; },
                                Time::ms(1)));
    // The predicate is only polled at round boundaries (every
    // windowsPerRound() grid windows), so extra events inside the round
    // may run — but never the whole backlog, and never events past the
    // satisfied round.
    EXPECT_GE(count, 5);
    EXPECT_LT(count, 20);
    // An exhausted limit reports false without touching future windows.
    EXPECT_FALSE(kernel.runUntil([] { return false; },
                                 kernel.now() + Time::ns(1)));
    EXPECT_TRUE(kernel.runUntil([&count] { return count == 20; },
                                Time::ms(1)));
    EXPECT_EQ(kernel.executed(), 20u);
}

TEST(CrossChannel, PartialDrainsKeepPushOrderAndMinKey)
{
    using Item = std::pair<std::int64_t, int>;  // (key, push index)
    CrossChannel<Item> channel;
    EXPECT_EQ(channel.minKey(), CrossChannel<Item>::kEmpty);

    const std::int64_t keys[] = {50, 10, 40, 10, 30, 60, 20};
    for (int i = 0; i < 7; ++i)
        channel.push(keys[i], {keys[i], i});
    EXPECT_EQ(channel.minKey(), 10);
    EXPECT_EQ(channel.size(), 7u);

    const auto key = [](const Item& item) { return item.first; };
    std::vector<Item> out;
    channel.drainUpTo(5, key, out);  // below every key: a no-op
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(channel.size(), 7u);

    channel.drainUpTo(20, key, out);
    EXPECT_EQ(out, (std::vector<Item>{{10, 1}, {10, 3}, {20, 6}}));
    EXPECT_EQ(channel.minKey(), 30);
    EXPECT_EQ(channel.size(), 4u);

    // A push below the remaining minimum lowers it again; the survivors
    // keep their push order ahead of it.
    channel.push(25, {25, 7});
    EXPECT_EQ(channel.minKey(), 25);
    out.clear();
    channel.drainUpTo(50, key, out);
    EXPECT_EQ(out,
              (std::vector<Item>{{50, 0}, {40, 2}, {30, 4}, {25, 7}}));
    EXPECT_EQ(channel.minKey(), 60);

    out.clear();
    channel.drainUpTo(CrossChannel<Item>::kEmpty - 1, key, out);
    EXPECT_EQ(out, (std::vector<Item>{{60, 5}}));
    EXPECT_EQ(channel.minKey(), CrossChannel<Item>::kEmpty);
    EXPECT_EQ(channel.size(), 0u);
}

namespace {

/**
 * A minimal cross-island mailbox exercising the BarrierAgent protocol
 * the way net::Fabric does: the source island pushes into per-(src, dst)
 * CrossChannels keyed by the message's effect time (send + lookahead);
 * the destination drains everything its window horizon covers before
 * running the window. No edge is declared, so the kernel assumes a
 * dense graph: every island is in one component, whose single worker
 * per round is what lets CrossChannel go without locks.
 */
struct MailboxAgent : ShardedKernel::BarrierAgent
{
    using Msg = std::pair<Time, int>;
    using Channel = CrossChannel<Msg>;

    explicit MailboxAgent(ShardedKernel& kernel)
        : kernel_(kernel), received_(kernel.islandCount())
    {
        for (std::size_t i = 0; i < kernel.islandCount(); ++i) {
            auto& row = out_.emplace_back();
            for (std::size_t j = 0; j < kernel.islandCount(); ++j)
                row.emplace_back();
        }
        kernel.addBarrierAgent(this);
    }

    void
    post(std::size_t from, std::size_t to, int tag)
    {
        const Time at = kernel_.island(from).now() + kernel_.lookahead();
        out_[from][to].push(at.toNs(), {at, tag});
    }

    std::uint64_t
    flushInbound(std::size_t island, Time /*now*/, Time horizon) override
    {
        std::vector<Msg> batch;
        for (auto& row : out_) {
            row[island].drainUpTo(
                horizon.toNs(),
                [](const Msg& m) { return m.first.toNs(); }, batch);
        }
        for (auto& [at, tag] : batch) {
            auto& sink = received_[island];
            kernel_.island(island).schedule(at, [&sink, island, tag, this] {
                sink.emplace_back(kernel_.island(island).now().toNs(), tag);
            });
        }
        return batch.size();
    }

    Time
    inboundEarliest(std::size_t island) override
    {
        std::int64_t earliest = Channel::kEmpty;
        for (auto& row : out_)
            earliest = std::min(earliest, row[island].minKey());
        return earliest == Channel::kEmpty ? Time::max()
                                           : Time::fromNs(earliest);
    }

    std::size_t
    inboundPending(std::size_t island) override
    {
        std::size_t total = 0;
        for (auto& row : out_)
            total += row[island].size();
        return total;
    }

    ShardedKernel& kernel_;
    /** out_[src][dst]. */
    std::vector<std::vector<Channel>> out_;
    std::vector<IslandTrace> received_;
};

} // namespace

TEST(ShardedKernel, BarrierAgentDeliversCrossIslandParcels)
{
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        MailboxAgent mail(kernel);

        // Island 0 pings island 1 every 600 ns; island 1 echoes back.
        for (int i = 0; i < 8; ++i) {
            kernel.island(0).schedule(Time::ns(600 * i), [&mail, i] {
                mail.post(0, 1, i);
            });
        }
        kernel.island(1).schedule(Time::us(2),
                                  [&mail] { mail.post(1, 0, 100); });
        EXPECT_TRUE(kernel.run());

        ASSERT_EQ(mail.received_[1].size(), 8u) << "jobs=" << jobs;
        for (int i = 0; i < 8; ++i) {
            // Arrived exactly one lookahead after the send.
            EXPECT_EQ(mail.received_[1][static_cast<std::size_t>(i)],
                      (std::pair<std::int64_t, int>{600 * i + 1000, i}));
        }
        ASSERT_EQ(mail.received_[0].size(), 1u);
        EXPECT_EQ(mail.received_[0][0].second, 100);
        EXPECT_EQ(kernel.kernelStats().channelParcels, 9u);
        kernel.removeBarrierAgent(&mail);
    }
}

// =====================================================================
// Island-mode flood differential: a miniature of the flood_capacity
// bench (client-side-ODP READ flood over RC pairs), audited end-to-end
// by the invariant monitor. Sequential (jobs=1) and threaded runs must
// be bit-identical; the single-queue kernel must agree on the verdicts.
// =====================================================================

namespace {

struct FloodOutcome
{
    std::uint64_t traceHash = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::uint64_t completions = 0;
    std::uint64_t violations = 0;
    std::int64_t stopNs = 0;
    bool completed = false;
    /** Deterministic island-kernel counters (0 on the single queue). */
    std::uint64_t windows = 0;
    std::uint64_t channelParcels = 0;
    std::uint64_t idleIslandRounds = 0;
    std::uint64_t components = 0;
    std::uint64_t liveComponentRounds = 0;

    bool
    operator==(const FloodOutcome& o) const
    {
        return traceHash == o.traceHash && sent == o.sent &&
               delivered == o.delivered && dropped == o.dropped &&
               completions == o.completions &&
               violations == o.violations && stopNs == o.stopNs &&
               completed == o.completed;
    }
};

/**
 * jobs == 0: single-queue kernel; jobs >= 1: island mode. With
 * `trigger` the wave wait goes through runUntilCompletions (the
 * per-island trigger path) instead of the polling runUntil — the two
 * must be indistinguishable in every deterministic output, including
 * the virtual stop time.
 */
FloodOutcome
runMiniFlood(unsigned jobs, std::uint64_t seed, bool trigger = false)
{
    constexpr std::size_t pairs = 4;
    constexpr std::size_t qpsPerPair = 16;
    constexpr std::size_t opsPerQp = 4;
    constexpr std::uint64_t bytesPerQp = 4096;

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 2 * pairs, seed,
                    net::LinkConfig{}, options);
    chaos::InvariantMonitor monitor(cluster.fabric());

    std::vector<verbs::QueuePair> flows;
    std::vector<verbs::CompletionQueue*> cqs;
    struct Region
    {
        std::uint64_t src, dst;
        std::uint32_t lkey, rkey;
    };
    std::vector<Region> regions;
    for (std::size_t p = 0; p < pairs; ++p) {
        Node& client = cluster.node(2 * p);
        Node& server = cluster.node(2 * p + 1);
        auto& ccq = client.createCq();
        auto& scq = server.createCq();
        cqs.push_back(&ccq);
        const std::uint64_t bytes = qpsPerPair * bytesPerQp;
        const std::uint64_t src = server.alloc(bytes);
        const std::uint64_t dst = client.alloc(bytes);
        auto& smr = server.registerMemory(src, bytes,
                                          verbs::AccessFlags::pinned());
        auto& cmr = client.registerMemory(dst, bytes,
                                          verbs::AccessFlags::odp());
        regions.push_back({src, dst, cmr.lkey(), smr.rkey()});
        for (std::size_t q = 0; q < qpsPerPair; ++q) {
            auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
            flows.push_back(cqp);
        }
    }
    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Region& r = regions[i / qpsPerPair];
        const std::uint64_t base = (i % qpsPerPair) * bytesPerQp;
        for (std::size_t op = 0; op < opsPerQp; ++op)
            flows[i].postRead(r.dst + base + op * 128, r.lkey,
                              r.src + base + op * 128, r.rkey, 100,
                              op + 1);
    }
    const auto completions = [&cqs] {
        std::uint64_t done = 0;
        for (auto* cq : cqs)
            done += cq->totalCompletions();
        return done;
    };
    const std::uint64_t expected = flows.size() * opsPerQp;

    FloodOutcome out;
    // Only clients post, so server CQs stay at zero and the
    // cluster-wide completion count equals the client-CQ sum — the
    // trigger target and the polled predicate see the same value.
    out.completed =
        trigger ? cluster.runUntilCompletions(expected, Time::sec(600))
                : cluster.runUntil(
                      [&] { return completions() >= expected; },
                      Time::sec(600));
    out.stopNs = cluster.now().toNs();
    cluster.advance(Time::ms(1));
    monitor.finalCheck();

    out.traceHash = monitor.traceHash();
    out.sent = cluster.fabric().totalSent();
    out.delivered = cluster.fabric().totalDelivered();
    out.dropped = cluster.fabric().totalDropped();
    out.completions = completions();
    out.violations = monitor.violationCount();
    if (const ShardedKernel* kernel = cluster.shardedKernel()) {
        const auto ks = kernel->kernelStats();
        out.windows = ks.windows;
        out.channelParcels = ks.channelParcels;
        out.idleIslandRounds = ks.idleIslandRounds;
        out.components = ks.components;
        out.liveComponentRounds = ks.liveComponentRounds;
    }
    return out;
}

} // namespace

TEST(ShardedKernel, FloodIsBitIdenticalAcrossWorkerCounts)
{
    const FloodOutcome seq = runMiniFlood(1, 404);
    EXPECT_TRUE(seq.completed);
    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(seq.completions, 4u * 16u * 4u);
    EXPECT_GT(seq.sent, 0u);

    // Four client/server pairs: one component each.
    EXPECT_EQ(seq.components, 4u);
    EXPECT_GT(seq.liveComponentRounds, 0u);

    for (const unsigned jobs : {2u, 4u, 8u}) {
        const FloodOutcome par = runMiniFlood(jobs, 404);
        EXPECT_TRUE(par == seq)
            << "jobs=" << jobs << ": hash " << std::hex << par.traceHash
            << " vs " << seq.traceHash << std::dec << ", sent " << par.sent
            << " vs " << seq.sent << ", completions " << par.completions
            << " vs " << seq.completions;
        EXPECT_EQ(par.windows, seq.windows) << "jobs=" << jobs;
        EXPECT_EQ(par.channelParcels, seq.channelParcels)
            << "jobs=" << jobs;
        EXPECT_EQ(par.idleIslandRounds, seq.idleIslandRounds)
            << "jobs=" << jobs;
        EXPECT_EQ(par.components, seq.components) << "jobs=" << jobs;
        EXPECT_EQ(par.liveComponentRounds, seq.liveComponentRounds)
            << "jobs=" << jobs;
    }

    // A different seed is a genuinely different run.
    EXPECT_NE(runMiniFlood(1, 405).traceHash, seq.traceHash);
}

namespace {

/**
 * A hot client machine split into planes (addNodePlanes) serving its QP
 * groups from per-plane islands, talking to one server per plane.
 * jobs == 0 runs the identical node/LID topology on the single queue.
 */
FloodOutcome
runPlaneSplitFlood(unsigned jobs, std::uint64_t seed)
{
    constexpr unsigned planeCount = 4;
    constexpr std::size_t qpsPerPlane = 8;
    constexpr std::size_t opsPerQp = 4;
    constexpr std::uint64_t bytesPerQp = 1024;

    ClusterOptions options;
    options.sharded = jobs > 0;
    options.jobs = jobs > 0 ? jobs : 1;
    Cluster cluster(rnic::DeviceProfile::connectX4(), 0, seed,
                    net::LinkConfig{}, options);
    const auto planes = cluster.addNodePlanes(
        rnic::DeviceProfile::connectX4(), planeCount);
    std::vector<Node*> servers;
    for (unsigned p = 0; p < planeCount; ++p)
        servers.push_back(&cluster.addNode());
    chaos::InvariantMonitor monitor(cluster.fabric());

    std::vector<verbs::QueuePair> flows;
    std::vector<verbs::CompletionQueue*> cqs;
    struct Region
    {
        std::uint64_t src, dst;
        std::uint32_t lkey, rkey;
    };
    std::vector<Region> regions;
    for (unsigned p = 0; p < planeCount; ++p) {
        Node& client = *planes[p];
        Node& server = *servers[p];
        auto& ccq = client.createCq();
        auto& scq = server.createCq();
        cqs.push_back(&ccq);
        const std::uint64_t bytes = qpsPerPlane * bytesPerQp;
        const std::uint64_t src = server.alloc(bytes);
        const std::uint64_t dst = client.alloc(bytes);
        auto& smr = server.registerMemory(src, bytes,
                                          verbs::AccessFlags::pinned());
        auto& cmr = client.registerMemory(dst, bytes,
                                          verbs::AccessFlags::pinned());
        regions.push_back({src, dst, cmr.lkey(), smr.rkey()});
        for (std::size_t q = 0; q < qpsPerPlane; ++q) {
            auto [cqp, sqp] = cluster.connectRc(client, ccq, server, scq);
            flows.push_back(cqp);
        }
    }
    monitor.watchAll(cluster);

    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Region& r = regions[i / qpsPerPlane];
        const std::uint64_t base = (i % qpsPerPlane) * bytesPerQp;
        for (std::size_t op = 0; op < opsPerQp; ++op)
            flows[i].postRead(r.dst + base + op * 128, r.lkey,
                              r.src + base + op * 128, r.rkey, 100,
                              op + 1);
    }
    const auto completions = [&cqs] {
        std::uint64_t done = 0;
        for (auto* cq : cqs)
            done += cq->totalCompletions();
        return done;
    };
    const std::uint64_t expected = flows.size() * opsPerQp;

    FloodOutcome out;
    out.completed = cluster.runUntil(
        [&] { return completions() >= expected; }, Time::sec(600));
    cluster.advance(Time::ms(1));
    monitor.finalCheck();

    if (jobs > 0) {
        // KernelStats folds the planes into one logical island: one
        // entry for the split client machine plus one per server, and
        // no events lost in the attribution.
        const auto ks = cluster.shardedKernel()->kernelStats();
        EXPECT_EQ(ks.executedPerIsland.size(), 1u + planeCount);
        std::uint64_t sum = 0;
        for (const std::uint64_t executed : ks.executedPerIsland)
            sum += executed;
        EXPECT_EQ(sum, cluster.shardedKernel()->executed());
        EXPECT_GT(ks.executedPerIsland.front(), 0u);
    }

    out.traceHash = monitor.traceHash();
    out.sent = cluster.fabric().totalSent();
    out.delivered = cluster.fabric().totalDelivered();
    out.dropped = cluster.fabric().totalDropped();
    out.completions = completions();
    out.violations = monitor.violationCount();
    return out;
}

} // namespace

TEST(ShardedKernel, PlaneSplitFloodIsBitIdenticalAcrossSchedules)
{
    const FloodOutcome seq = runPlaneSplitFlood(1, 909);
    EXPECT_TRUE(seq.completed);
    EXPECT_EQ(seq.violations, 0u);
    EXPECT_EQ(seq.completions, 4u * 8u * 4u);

    for (const unsigned jobs : {2u, 4u}) {
        const FloodOutcome par = runPlaneSplitFlood(jobs, 909);
        EXPECT_TRUE(par == seq) << "jobs=" << jobs;
    }

    // Identical node/LID topology on the single-queue kernel: the
    // workload outcome (not the schedule) is mode-invariant.
    const FloodOutcome single = runPlaneSplitFlood(0, 909);
    EXPECT_TRUE(single.completed);
    EXPECT_EQ(single.completions, seq.completions);
    EXPECT_EQ(single.violations, 0u);
}

TEST(ShardedKernel, FloodAgreesWithSingleQueueKernelOnVerdicts)
{
    const FloodOutcome single = runMiniFlood(0, 404);
    const FloodOutcome island = runMiniFlood(1, 404);
    // The two kernels schedule differently (island mode is its own
    // deterministic mode), but the workload outcome is mode-invariant:
    // everything completes, the oracle stays clean, nothing is lost.
    EXPECT_TRUE(single.completed);
    EXPECT_TRUE(island.completed);
    EXPECT_EQ(single.completions, island.completions);
    EXPECT_EQ(single.violations, 0u);
    EXPECT_EQ(island.violations, 0u);
    EXPECT_EQ(single.dropped, 0u);
    EXPECT_EQ(island.dropped, 0u);
}

// =====================================================================
// Round three: trigger-based waits must be indistinguishable from
// polling (stop time, trace hash, oracle verdicts) at every jobs
// count; the drain probe must cut the null-message leapfrog tail
// without touching any of that.
// =====================================================================

TEST(ShardedKernel, TriggerWaitMatchesPollingExactly)
{
    const FloodOutcome ref = runMiniFlood(1, 511);
    EXPECT_TRUE(ref.completed);
    EXPECT_EQ(ref.violations, 0u);

    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        const FloodOutcome poll = runMiniFlood(jobs, 511, false);
        const FloodOutcome trig = runMiniFlood(jobs, 511, true);
        EXPECT_TRUE(poll == ref) << "poll jobs=" << jobs;
        EXPECT_TRUE(trig == ref)
            << "trigger jobs=" << jobs << ": hash " << std::hex
            << trig.traceHash << " vs " << ref.traceHash << std::dec
            << ", stop " << trig.stopNs << " vs " << ref.stopNs
            << ", completions " << trig.completions << " vs "
            << ref.completions;
    }
}

TEST(ShardedKernel, TriggerWaitFallbackMatchesSingleQueuePolling)
{
    // jobs == 0: runUntilCompletions degrades to the historical
    // per-event polling loop — bit-identical, goldens untouched.
    const FloodOutcome poll = runMiniFlood(0, 511);
    const FloodOutcome trig = runMiniFlood(0, 511, true);
    EXPECT_TRUE(trig.completed);
    EXPECT_TRUE(trig == poll);
}

namespace {

/**
 * Raw-kernel trigger harness: `n` islands in a bidirectional ring,
 * every island retiring one counter tick per window for `ticks`
 * windows. Crossings can involve several islands' deltas inside one
 * worker pass, and the last executed window sits mid-round — the two
 * trigger edge cases the flood differential cannot isolate.
 */
struct CounterTriggerRun
{
    std::int64_t stopNs = 0;
    bool hit = false;
    std::uint64_t executed = 0;
    std::uint64_t triggerExits = 0;
    std::uint64_t drainAborts = 0;
};

CounterTriggerRun
runCounterTrigger(unsigned jobs, std::uint64_t target, bool poll)
{
    constexpr std::size_t n = 8;
    constexpr std::uint64_t ticks = 40;

    ShardedKernel kernel(Time::us(1), jobs);
    for (std::size_t i = 0; i < n; ++i)
        kernel.addIsland();
    for (std::size_t i = 0; i < n; ++i) {
        kernel.declareEdge(i, (i + 1) % n);
        kernel.declareEdge((i + 1) % n, i);
    }
    std::deque<std::atomic<std::uint64_t>> counts(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto& count = counts[i];
        count.store(0);
        for (std::uint64_t w = 0; w < ticks; ++w) {
            kernel.island(i).schedule(
                Time::ns(static_cast<std::int64_t>(w) * 1000 + 500),
                [&count] {
                    count.fetch_add(1, std::memory_order_relaxed);
                });
        }
        kernel.addTrigger(i, [&count] {
            return count.load(std::memory_order_relaxed);
        });
    }

    CounterTriggerRun out;
    if (poll) {
        out.hit = kernel.runUntil(
            [&counts, target] {
                std::uint64_t sum = 0;
                for (const auto& c : counts)
                    sum += c.load(std::memory_order_relaxed);
                return sum >= target;
            },
            Time::ms(1));
    } else {
        out.hit = kernel.runUntilTriggered(target, Time::ms(1));
    }
    out.stopNs = kernel.now().toNs();
    out.executed = kernel.executed();
    const auto ks = kernel.kernelStats();
    out.triggerExits = ks.triggerExits;
    out.drainAborts = ks.drainAborts;
    return out;
}

} // namespace

TEST(ShardedKernel, TriggerCrossingsFromManyIslandsStopLikePolling)
{
    // All 8 islands tick in every window, so the crossing window's
    // pass accumulates deltas from several islands at once. Targets
    // probe a mid-round crossing, a round-boundary crossing and an
    // unreachable target (limit exit).
    for (const std::uint64_t target : {37ull, 8ull * 16ull, 8ull * 39ull}) {
        const CounterTriggerRun ref = runCounterTrigger(1, target, true);
        EXPECT_TRUE(ref.hit) << "target=" << target;
        for (const unsigned jobs : {1u, 2u, 4u}) {
            const CounterTriggerRun trig =
                runCounterTrigger(jobs, target, false);
            EXPECT_EQ(trig.stopNs, ref.stopNs)
                << "jobs=" << jobs << " target=" << target;
            EXPECT_EQ(trig.executed, ref.executed)
                << "jobs=" << jobs << " target=" << target;
            EXPECT_TRUE(trig.hit);
            EXPECT_EQ(trig.triggerExits, 1u);
        }
    }

    // Unreachable target: both paths run to the limit and report
    // false, with every event executed.
    const CounterTriggerRun poll = runCounterTrigger(1, 10000, true);
    const CounterTriggerRun trig = runCounterTrigger(2, 10000, false);
    EXPECT_FALSE(poll.hit);
    EXPECT_FALSE(trig.hit);
    EXPECT_EQ(trig.executed, 8u * 40u);
    EXPECT_EQ(trig.stopNs, poll.stopNs);
    EXPECT_EQ(trig.triggerExits, 0u);
}

TEST(ShardedKernel, TriggerRegisteredAfterRunStartCountsPriorWork)
{
    // Work retired before the trigger is registered must count toward
    // the target (the counters are absolute, not deltas): register
    // after a partial run, ask for a target already met, and the call
    // returns satisfied without advancing virtual time.
    ShardedKernel kernel(Time::us(1), 2);
    kernel.addIsland();
    kernel.addIsland();
    std::deque<std::atomic<std::uint64_t>> counts(2);
    counts[0].store(0);
    counts[1].store(0);
    for (std::size_t i = 0; i < 2; ++i) {
        for (int w = 0; w < 8; ++w) {
            auto& count = counts[i];
            kernel.island(i).schedule(Time::us(w), [&count] {
                count.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    EXPECT_FALSE(kernel.run(Time::us(3)));  // events remain past 3 us
    const std::uint64_t before = counts[0].load() + counts[1].load();
    EXPECT_GE(before, 2u);

    kernel.addTrigger(0, [&counts] { return counts[0].load(); });
    kernel.addTrigger(1, [&counts] { return counts[1].load(); });
    const Time at = kernel.now();
    EXPECT_TRUE(kernel.runUntilTriggered(before, Time::ms(1)));
    EXPECT_EQ(kernel.now(), at);  // satisfied before any round ran

    // And a later target drains the rest normally.
    EXPECT_TRUE(kernel.runUntilTriggered(16, Time::ms(1)));
    EXPECT_EQ(counts[0].load() + counts[1].load(), 16u);
    EXPECT_GT(kernel.kernelStats().triggerExits, 0u);
}

TEST(ShardedKernel, SequentialDrainProbeAbortsLeapfrogTail)
{
    // Four 16-island bidirectional rings with all events in the round's
    // first window: once they retire, the rest of the round is pure
    // null-message leapfrogging — 16 islands x 15 windows of clock
    // churn per ring with nothing underneath. Each ring is a component,
    // and its drain probe runs inline on whichever worker runs it, so
    // every ring aborts its round exactly once at every jobs count, and
    // no abort skips an event.
    constexpr std::size_t rings = 4;
    constexpr std::size_t perRing = 16;
    constexpr std::size_t n = rings * perRing;
    for (const unsigned jobs : {1u, 2u, 4u, 8u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        for (std::size_t i = 0; i < n; ++i)
            kernel.addIsland();
        for (std::size_t r = 0; r < rings; ++r) {
            for (std::size_t k = 0; k < perRing; ++k) {
                const std::size_t a = r * perRing + k;
                const std::size_t b = r * perRing + (k + 1) % perRing;
                kernel.declareEdge(a, b);
                kernel.declareEdge(b, a);
            }
        }
        std::atomic<std::uint64_t> ran{0};
        for (std::size_t i = 0; i < n; ++i)
            kernel.island(i).schedule(
                Time::ns(static_cast<std::int64_t>(i) * 10),
                [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(ran.load(), n) << "jobs=" << jobs;
        EXPECT_EQ(kernel.executed(), n) << "jobs=" << jobs;
        EXPECT_EQ(kernel.pending(), 0u) << "jobs=" << jobs;
        const auto ks = kernel.kernelStats();
        EXPECT_EQ(ks.components, rings) << "jobs=" << jobs;
        EXPECT_EQ(ks.drainAborts, rings) << "jobs=" << jobs;
    }

    // A pass that only creeps clocks while work waits further ahead in
    // the round (here: both islands leapfrogging from 2.5 us towards
    // their events at 10 us) is not a drain tail: the single round
    // [0, 12 us] must execute everything.
    for (const unsigned jobs : {1u, 2u}) {
        ShardedKernel kernel(Time::us(1), jobs);
        kernel.addIsland();
        kernel.addIsland();
        for (const std::int64_t ns :
             {0L, 100L, 950L, 1000L, 2500L, 9999L, 10000L}) {
            for (std::size_t island = 0; island < 2; ++island)
                kernel.island(island).schedule(Time::ns(ns), [] {});
        }
        EXPECT_TRUE(kernel.run(Time::ns(12000)));
        EXPECT_EQ(kernel.executed(), 14u);
        EXPECT_EQ(kernel.kernelStats().barriers, 1u) << "jobs=" << jobs;
    }
}

TEST(ShardedKernel, StealingDrainTokenKeepsResultsIntact)
{
    // The quiet-tail shape on a threaded pool: one 64-island ring (a
    // single component, run inline) and 32 bidirectional pairs (32
    // components spread over the workers and stolen between them).
    // Every component's drain probe may abort its round, and no abort
    // may skip an event.
    constexpr std::size_t n = 64;
    for (const bool ring : {true, false}) {
        for (const unsigned jobs : {2u, 4u, 8u}) {
            ShardedKernel kernel(Time::us(1), jobs);
            for (std::size_t i = 0; i < n; ++i)
                kernel.addIsland();
            for (std::size_t i = 0; i < n; i += ring ? 1 : 2) {
                const std::size_t peer = ring ? (i + 1) % n : i + 1;
                kernel.declareEdge(i, peer);
                kernel.declareEdge(peer, i);
            }
            std::atomic<std::uint64_t> ran{0};
            for (std::size_t i = 0; i < n; ++i)
                kernel.island(i).schedule(
                    Time::ns(static_cast<std::int64_t>(i) * 10),
                    [&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
            EXPECT_TRUE(kernel.run());
            EXPECT_EQ(ran.load(), n) << "ring=" << ring << " jobs=" << jobs;
            EXPECT_EQ(kernel.executed(), n)
                << "ring=" << ring << " jobs=" << jobs;
            EXPECT_EQ(kernel.pending(), 0u)
                << "ring=" << ring << " jobs=" << jobs;
            EXPECT_EQ(kernel.kernelStats().components, ring ? 1u : n / 2)
                << "ring=" << ring << " jobs=" << jobs;
        }
    }
}

// =====================================================================
// Round-start lower bounds (DESIGN.md §12.d): each island starts a
// round at its own bound, relaxed one lookahead per edge hop from
// every island's earliest pending item; islands bounded past the round
// limit finish the round at dispatch. The counters are deterministic,
// so every case runs inline and on a threaded pool.
// =====================================================================

namespace {

/** The inline reference and a threaded pool. */
constexpr unsigned kBoundJobs[] = {1, 4};

/** L = 1 us, rounds pinned to two windows: work in [0, 999] ns opens
 * the round [0, 1999] ns. */
std::unique_ptr<ShardedKernel>
makeBoundKernel(unsigned jobs, std::size_t islands)
{
    auto kernel = std::make_unique<ShardedKernel>(Time::us(1), jobs);
    kernel->setWindowsPerRound(2);
    for (std::size_t i = 0; i < islands; ++i)
        kernel->addIsland();
    return kernel;
}

} // namespace

TEST(ShardedKernel, ChainBoundSkipsIslandsPastTheRoundLimit)
{
    // A -> B -> C with work only on A at t = 999 ns: B's bound is
    // t + L = 1999 ns, inside the round [0, 1999]; C's is t + 2L =
    // 2999 ns, past it, so C finishes the round at dispatch.
    for (const unsigned jobs : kBoundJobs) {
        auto kernel = makeBoundKernel(jobs, 3);
        kernel->declareEdge(0, 1);
        kernel->declareEdge(1, 2);
        bool ran = false;
        kernel->island(0).schedule(Time::ns(999), [&ran] { ran = true; });
        EXPECT_TRUE(kernel->run());
        EXPECT_TRUE(ran);
        const auto ks = kernel->kernelStats();
        EXPECT_EQ(ks.barriers, 1u) << "jobs=" << jobs;
        EXPECT_EQ(ks.windows, 1u) << "jobs=" << jobs;
        EXPECT_EQ(ks.idleIslandRounds, 1u) << "jobs=" << jobs;
    }
}

TEST(ShardedKernel, ParcelLandingOnTheBoundRunsInThatRound)
{
    // A at t = 999 ns posts to B with effect t + L = 1999 ns — exactly
    // B's bound and the round limit. B's clock starts at bound - 1, so
    // the parcel executes in the first round; a clock started at the
    // bound would end B's round untouched and defer it to a second.
    for (const unsigned jobs : kBoundJobs) {
        auto kernel = makeBoundKernel(jobs, 2);
        kernel->declareEdge(0, 1);
        MailboxAgent mail(*kernel);
        kernel->island(0).schedule(Time::ns(999),
                                   [&mail] { mail.post(0, 1, 7); });
        EXPECT_TRUE(kernel->run());
        ASSERT_EQ(mail.received_[1].size(), 1u) << "jobs=" << jobs;
        EXPECT_EQ(mail.received_[1][0],
                  (std::pair<std::int64_t, int>{1999, 7}));
        const auto ks = kernel->kernelStats();
        EXPECT_EQ(ks.barriers, 1u) << "jobs=" << jobs;
        EXPECT_EQ(ks.idleIslandRounds, 0u) << "jobs=" << jobs;
        EXPECT_EQ(ks.channelParcels, 1u) << "jobs=" << jobs;
        kernel->removeBarrierAgent(&mail);
    }
}

TEST(ShardedKernel, IdlePairExecutesNoWindow)
{
    // Pairs 0 <-> 1 and 2 <-> 3, work on the first pair only, in two
    // rounds ([0, 1999] and [4000, 5999] ns). The idle pair is finished
    // at dispatch in both: it executes no window and its clocks end at
    // the last round limit with everyone else's.
    for (const unsigned jobs : kBoundJobs) {
        auto kernel = makeBoundKernel(jobs, 4);
        for (const auto& [a, b] : {std::pair{0, 1}, std::pair{2, 3}}) {
            kernel->declareEdge(a, b);
            kernel->declareEdge(b, a);
        }
        for (const std::int64_t ns : {100L, 1500L, 4200L})
            kernel->island(0).schedule(Time::ns(ns), [] {});
        kernel->island(1).schedule(Time::ns(5100), [] {});
        EXPECT_TRUE(kernel->run(Time::ns(5999)));
        const auto ks = kernel->kernelStats();
        EXPECT_EQ(ks.barriers, 2u) << "jobs=" << jobs;
        EXPECT_EQ(ks.windows, 4u) << "jobs=" << jobs;
        EXPECT_EQ(ks.idleIslandRounds, 4u) << "jobs=" << jobs;
        EXPECT_EQ(ks.executedPerIsland,
                  (std::vector<std::uint64_t>{3, 1, 0, 0}));
        for (std::size_t i = 0; i < kernel->islandCount(); ++i)
            EXPECT_EQ(kernel->island(i).now(), Time::ns(5999))
                << "island " << i << " jobs=" << jobs;
    }
}

TEST(ShardedKernel, DenseIslandTakesItsBoundFromEveryIsland)
{
    // Island 3 is dense, nothing else is connected. Work at 999 ns on
    // any other island bounds the dense one at 1999 ns (inside the
    // round) and the remaining two at 2999 ns through it (past it).
    for (const unsigned jobs : kBoundJobs) {
        for (std::size_t src = 0; src < 3; ++src) {
            auto kernel = makeBoundKernel(jobs, 4);
            kernel->declareDense(3);
            kernel->island(src).schedule(Time::ns(999), [] {});
            EXPECT_TRUE(kernel->run());
            const auto ks = kernel->kernelStats();
            EXPECT_EQ(ks.barriers, 1u);
            EXPECT_EQ(ks.idleIslandRounds, 2u)
                << "source " << src << " jobs=" << jobs;
        }
    }
}

// =====================================================================
// Component rounds (DESIGN.md §12.e): each connected component of the
// edge graph runs its whole round on one worker. Which worker runs
// which component depends on jobs and timing; nothing a component
// executes may.
// =====================================================================

namespace {

/** Deterministic outputs of a MailboxAgent workload. */
struct MailRun
{
    std::vector<IslandTrace> received;
    std::uint64_t windows = 0;
    std::uint64_t channelParcels = 0;
    std::uint64_t idleIslandRounds = 0;
    std::uint64_t drainAborts = 0;
    std::uint64_t components = 0;
    std::uint64_t liveComponentRounds = 0;
    std::uint64_t barriers = 0;
};

MailRun
collect(const ShardedKernel& kernel, const MailboxAgent& mail)
{
    const auto ks = kernel.kernelStats();
    MailRun out;
    out.received = mail.received_;
    out.windows = ks.windows;
    out.channelParcels = ks.channelParcels;
    out.idleIslandRounds = ks.idleIslandRounds;
    out.drainAborts = ks.drainAborts;
    out.components = ks.components;
    out.liveComponentRounds = ks.liveComponentRounds;
    out.barriers = ks.barriers;
    return out;
}

void
expectSameRun(const MailRun& run, const MailRun& ref, unsigned jobs)
{
    EXPECT_EQ(run.received, ref.received) << "jobs=" << jobs;
    EXPECT_EQ(run.windows, ref.windows) << "jobs=" << jobs;
    EXPECT_EQ(run.channelParcels, ref.channelParcels) << "jobs=" << jobs;
    EXPECT_EQ(run.idleIslandRounds, ref.idleIslandRounds)
        << "jobs=" << jobs;
    EXPECT_EQ(run.drainAborts, ref.drainAborts) << "jobs=" << jobs;
    EXPECT_EQ(run.components, ref.components) << "jobs=" << jobs;
    EXPECT_EQ(run.liveComponentRounds, ref.liveComponentRounds)
        << "jobs=" << jobs;
    EXPECT_EQ(run.barriers, ref.barriers) << "jobs=" << jobs;
}

void
declarePair(ShardedKernel& kernel, std::size_t a, std::size_t b)
{
    kernel.declareEdge(a, b);
    kernel.declareEdge(b, a);
}

/**
 * Pairs 0 <-> 1 and 2 <-> 3 exchange mail in a first run; between runs
 * the quiesced kernel gains the edge 1 -> 2, which merges the pairs,
 * and the second run carries mail across it.
 */
MailRun
runMergingPairs(unsigned jobs, std::uint64_t* components_before)
{
    ShardedKernel kernel(Time::us(1), jobs);
    for (int i = 0; i < 4; ++i)
        kernel.addIsland();
    declarePair(kernel, 0, 1);
    declarePair(kernel, 2, 3);
    MailboxAgent mail(kernel);
    for (int k = 0; k < 6; ++k) {
        kernel.island(0).schedule(Time::ns(700 * k),
                                  [&mail, k] { mail.post(0, 1, k); });
        kernel.island(3).schedule(Time::ns(900 * k + 50), [&mail, k] {
            mail.post(3, 2, 10 + k);
        });
    }
    // Runs only after the edge exists (the first run stops at 30 us).
    for (int k = 0; k < 4; ++k) {
        kernel.island(1).schedule(Time::us(40) + Time::ns(300 * k),
                                  [&mail, k] { mail.post(1, 2, 20 + k); });
    }
    EXPECT_FALSE(kernel.run(Time::us(30)));
    *components_before = kernel.kernelStats().components;
    kernel.declareEdge(1, 2);
    EXPECT_TRUE(kernel.run());
    kernel.removeBarrierAgent(&mail);
    return collect(kernel, mail);
}

} // namespace

TEST(ShardedKernel, ComponentsFollowTheEdgeGraph)
{
    // Two disjoint pairs plus an idle island: three components, counted
    // from the first run on; a dense island joins them all.
    ShardedKernel kernel(Time::us(1), 2);
    for (int i = 0; i < 5; ++i)
        kernel.addIsland();
    declarePair(kernel, 0, 1);
    declarePair(kernel, 2, 3);
    EXPECT_EQ(kernel.kernelStats().components, 0u);
    kernel.island(0).schedule(Time::ns(10), [] {});
    EXPECT_TRUE(kernel.run());
    EXPECT_EQ(kernel.kernelStats().components, 3u);
    EXPECT_EQ(kernel.kernelStats().liveComponentRounds, 1u);
    kernel.declareDense(4);
    EXPECT_EQ(kernel.kernelStats().components, 1u);

    // A quiesced declareEdge between runs merges two components, and
    // the run across the merge stays bit-identical to jobs = 1.
    std::uint64_t before = 0;
    const MailRun ref = runMergingPairs(1, &before);
    EXPECT_EQ(before, 2u);
    EXPECT_EQ(ref.components, 1u);
    ASSERT_EQ(ref.received[2].size(), 10u);
    EXPECT_EQ(ref.received[2].back(),
              (std::pair<std::int64_t, int>{40900 + 1000, 23}));
    for (const unsigned jobs : {2u, 4u, 8u}) {
        const MailRun run = runMergingPairs(jobs, &before);
        EXPECT_EQ(before, 2u) << "jobs=" << jobs;
        expectSameRun(run, ref, jobs);
    }
}

TEST(ShardedKernel, MoreComponentsThanWorkersAndOneGiant)
{
    // A giant 8-island ring carrying mail around every 5 us, plus ten
    // pairs with sparse, uneven traffic: eleven components of very
    // different weight, more than any worker count here. The ring runs
    // on one worker per round while the pairs spread over the others;
    // every deterministic counter must match jobs = 1.
    constexpr std::size_t ring = 8;
    constexpr std::size_t pairs = 10;
    const auto run = [](unsigned jobs) {
        ShardedKernel kernel(Time::us(1), jobs);
        for (std::size_t i = 0; i < ring + 2 * pairs; ++i)
            kernel.addIsland();
        for (std::size_t i = 0; i < ring; ++i)
            declarePair(kernel, i, (i + 1) % ring);
        for (std::size_t p = 0; p < pairs; ++p)
            declarePair(kernel, ring + 2 * p, ring + 2 * p + 1);
        MailboxAgent mail(kernel);
        for (std::size_t i = 0; i < ring; ++i) {
            for (int m = 0; m < 12; ++m) {
                kernel.island(i).schedule(
                    Time::ns(static_cast<std::int64_t>(i) * 50 + m * 5000),
                    [&mail, i, m] { mail.post(i, (i + 1) % ring, m); });
            }
        }
        for (std::size_t p = 0; p < pairs; ++p) {
            const std::size_t a = ring + 2 * p;
            for (int m = 0; m < 3 + static_cast<int>(p); ++m) {
                kernel.island(a).schedule(
                    Time::ns(static_cast<std::int64_t>(p) * 137 +
                             m * 23000),
                    [&mail, a, m] { mail.post(a, a + 1, m); });
            }
        }
        EXPECT_TRUE(kernel.run());
        EXPECT_EQ(kernel.pending(), 0u);
        kernel.removeBarrierAgent(&mail);
        return collect(kernel, mail);
    };

    const MailRun ref = run(1);
    EXPECT_EQ(ref.components, 1u + pairs);
    EXPECT_EQ(ref.channelParcels, ring * 12u + pairs * 3u + 45u);
    EXPECT_GT(ref.liveComponentRounds, ref.barriers);
    EXPECT_GT(ref.idleIslandRounds, 0u);
    EXPECT_GT(ref.drainAborts, 0u);
    for (const unsigned jobs : {2u, 4u, 8u})
        expectSameRun(run(jobs), ref, jobs);
}
