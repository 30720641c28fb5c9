#include "simcore/sharded_kernel.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <functional>

namespace ibsim {

namespace {

std::uint64_t
elapsedNs(std::chrono::steady_clock::time_point from,
          std::chrono::steady_clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

ShardedKernel::ShardedKernel(Time lookahead, unsigned jobs)
    : lookahead_(lookahead), jobs_(std::max(1u, jobs))
{
    assert(lookahead_ > Time() && "lookahead must be positive");
}

ShardedKernel::~ShardedKernel()
{
    if (workers_.size() > 1) {
        exit_.store(true, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        for (auto& w : workers_) {
            if (w.thread.joinable())
                w.thread.join();
        }
    }
}

std::size_t
ShardedKernel::addIsland()
{
    assert(!started_ && "islands are fixed once the kernel has run");
    islands_.emplace_back();
    islands_.back().queue = std::make_unique<EventQueue>();
    logicalOf_.push_back(islands_.size() - 1);
    return islands_.size() - 1;
}

void
ShardedKernel::growEdges()
{
    // Islands and edges are declared interleaved (the cluster layer adds
    // a node pair, connects its QPs, adds the next pair, ...), so the
    // matrix must grow *preserving* everything declared so far.
    const std::size_t n = islands_.size();
    if (edges_.size() == n)
        return;
    for (auto& row : edges_)
        row.resize(n, 0);
    edges_.resize(n, std::vector<std::uint8_t>(n, 0));
}

void
ShardedKernel::declareEdge(std::size_t src, std::size_t dst)
{
    if (src == dst)
        return;  // same-island influence is inline, no clock involved
    anyEdgeDeclared_ = true;
    growEdges();
    assert(src < islands_.size() && dst < islands_.size());
    if (edges_[src][dst])
        return;
    edges_[src][dst] = 1;
    if (started_)
        rebuildNeighbors();  // only legal while quiesced (between runs)
}

void
ShardedKernel::declareDense(std::size_t island)
{
    // A flag, not materialized edges: a dense island must stay connected
    // to islands added *after* this call too (a UD QP can name any
    // destination, including a node created later).
    assert(island < islands_.size());
    anyEdgeDeclared_ = true;
    if (dense_.size() <= island)
        dense_.resize(island + 1, 0);
    if (dense_[island])
        return;
    dense_[island] = 1;
    if (started_)
        rebuildNeighbors();  // only legal while quiesced (between runs)
}

bool
ShardedKernel::isDense(std::size_t island) const
{
    return island < dense_.size() && dense_[island] != 0;
}

bool
ShardedKernel::hasEdge(std::size_t src, std::size_t dst) const
{
    if (src == dst)
        return true;
    if (!anyEdgeDeclared_)
        return true;  // undeclared graph = conservative dense default
    if (isDense(src) || isDense(dst))
        return true;
    if (src >= edges_.size() || dst >= edges_.size())
        return false;  // islands added after the last declared edge
    return edges_[src][dst] != 0;
}

void
ShardedKernel::setLogicalIsland(std::size_t island, std::size_t logical)
{
    assert(island < logicalOf_.size());
    logicalOf_[island] = logical;
}

std::size_t
ShardedKernel::logicalIslandCount() const
{
    std::size_t count = 0;
    for (std::size_t logical : logicalOf_)
        count = std::max(count, logical + 1);
    return count;
}

void
ShardedKernel::setWindowsPerRound(unsigned windows)
{
    assert(windows > 0);
    windowsPerRound_ = windows;
    windowsPinned_ = true;  // an explicit length disables adaptation
}

std::size_t
ShardedKernel::addTrigger(std::size_t island, TriggerCount count)
{
    assert(island < islands_.size());
    triggers_.push_back(Trigger{island, std::move(count), 0});
    islands_[island].trig.push_back(
        static_cast<std::uint32_t>(triggers_.size() - 1));
    return triggers_.size() - 1;
}

void
ShardedKernel::clearTriggers()
{
    triggers_.clear();
    for (Island& is : islands_)
        is.trig.clear();
    trigArmed_.store(false, std::memory_order_relaxed);
}

void
ShardedKernel::addBarrierAgent(BarrierAgent* agent)
{
    agents_.push_back(agent);
}

void
ShardedKernel::removeBarrierAgent(BarrierAgent* agent)
{
    agents_.erase(std::remove(agents_.begin(), agents_.end(), agent),
                  agents_.end());
}

void
ShardedKernel::rebuildNeighbors()
{
    const std::size_t n = islands_.size();
    for (std::size_t i = 0; i < n; ++i) {
        Island& is = islands_[i];
        is.inNbr.clear();
        is.outNbr.clear();
    }
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (j != i && hasEdge(j, i)) {
                islands_[i].inNbr.push_back(
                    static_cast<std::uint32_t>(j));
                islands_[j].outNbr.push_back(
                    static_cast<std::uint32_t>(i));
            }
        }
    }

    // Connected components, edges taken both ways: a search from each
    // still-unassigned island in index order, so numbering and member
    // order depend on the graph alone.
    constexpr std::uint32_t kNone = 0xffffffffu;
    std::vector<std::uint32_t> compOf(n, kNone);
    std::vector<std::uint32_t> stack;
    components_.clear();
    for (std::size_t root = 0; root < n; ++root) {
        if (compOf[root] != kNone)
            continue;
        const auto c = static_cast<std::uint32_t>(components_.size());
        std::vector<std::uint32_t>& members = components_.emplace_back();
        compOf[root] = c;
        stack.push_back(static_cast<std::uint32_t>(root));
        while (!stack.empty()) {
            const std::uint32_t i = stack.back();
            stack.pop_back();
            members.push_back(i);
            const Island& is = islands_[i];
            for (const auto* nbrs : {&is.inNbr, &is.outNbr}) {
                for (std::uint32_t j : *nbrs) {
                    if (compOf[j] == kNone) {
                        compOf[j] = c;
                        stack.push_back(j);
                    }
                }
            }
        }
        std::sort(members.begin(), members.end());
    }
}

void
ShardedKernel::startWorkers()
{
    if (started_)
        return;
    started_ = true;
    jobs_ = static_cast<unsigned>(std::min<std::size_t>(
        jobs_, std::max<std::size_t>(1, islands_.size())));
    rebuildNeighbors();
    lb_.assign(islands_.size(), 0);
    for (unsigned w = 0; w < jobs_; ++w)
        workers_.emplace_back();
    for (unsigned w = 1; w < jobs_; ++w)
        workers_[w].thread = std::thread([this, w] { workerLoop(w); });
}

Time
ShardedKernel::gridEnd(Time t) const
{
    const std::int64_t l = lookahead_.toNs();
    return Time::fromNs((t.toNs() / l + 1) * l);
}

Time
ShardedKernel::safeHorizon(const Island& is) const
{
    if (is.inNbr.empty())
        return Time::max();
    std::int64_t m = Time::max().toNs();
    for (std::uint32_t nbr : is.inNbr)
        m = std::min(m, islands_[nbr].done);
    if (m >= Time::max().toNs() - lookahead_.toNs())
        return Time::max();
    return Time::fromNs(m + lookahead_.toNs());
}

Time
ShardedKernel::inboundEarliest(std::size_t i) const
{
    Time earliest = Time::max();
    for (BarrierAgent* agent : agents_)
        earliest = std::min(earliest, agent->inboundEarliest(i));
    return earliest;
}

bool
ShardedKernel::stepIsland(std::size_t i, Time round_limit)
{
    Island& is = islands_[i];
    EventQueue& q = *is.queue;
    for (;;) {
        const Time done = Time::fromNs(is.done);
        // Dispatch starts a live island below its bound <= round_limit,
        // and every clock move to round_limit also finishes the round.
        assert(done < round_limit);

        const Time safe = safeHorizon(is);
        const Time next =
            std::min(q.nextEventTime(), inboundEarliest(i));

        if (next > round_limit) {
            // Nothing to execute this round: move the clock up to the
            // horizon (the null-message leapfrog that unblocks
            // downstream islands) and finish the round when possible.
            const Time target = std::min(round_limit, safe);
            if (target <= done) {
                is.maxLagNs = std::max(
                    is.maxLagNs, static_cast<std::uint64_t>(
                                     (round_limit - safe).toNs()));
                return false;
            }
            is.done = target.toNs();
            if (target == round_limit) {
                is.roundDone = true;
                return true;
            }
            continue;
        }

        // Execute the grid window holding the earliest pending work.
        const Time wEnd = gridEnd(next);
        const Time runLimit = std::max(
            std::min(wEnd - Time::ns(1), round_limit), done);
        if (runLimit > safe) {
            // Window not yet safe; creep the clock toward it so the
            // upstream islands' own horizons keep moving too.
            const Time target = std::min(safe, next - Time::ns(1));
            if (target <= done) {
                is.maxLagNs = std::max(
                    is.maxLagNs,
                    static_cast<std::uint64_t>((runLimit - safe).toNs()));
                return false;
            }
            is.done = target.toNs();
            continue;
        }

        std::uint64_t parcels = 0;
        for (BarrierAgent* agent : agents_)
            parcels += agent->flushInbound(i, done, runLimit);
        is.parcels += parcels;
        q.run(runLimit);
        q.syncClock(runLimit);
        is.done = runLimit.toNs();
        ++is.windows;
        if (!is.trig.empty() &&
            trigArmed_.load(std::memory_order_relaxed))
            noteTriggers(is);
        if (runLimit == round_limit) {
            is.roundDone = true;
            return true;
        }
    }
}

void
ShardedKernel::noteTriggers(Island& is)
{
    for (std::uint32_t t : is.trig) {
        Trigger& trig = triggers_[t];
        const std::uint64_t cur = trig.count();
        if (cur <= trig.lastSeen)
            continue;  // monotone counters only move forward
        const std::uint64_t delta = cur - trig.lastSeen;
        trig.lastSeen = cur;
        const std::uint64_t sum =
            trigSum_.fetch_add(delta, std::memory_order_relaxed) + delta;
        if (sum >= trigTarget_)
            trigFired_.store(true, std::memory_order_relaxed);
    }
}

void
ShardedKernel::runComponent(std::uint32_t c)
{
    // The sequential island scan, restricted to one component: every
    // in-neighbor of a member is a member, so the scan needs no other
    // island's clock and always has an island that can move (the one
    // holding the component's minimal clock).
    const std::vector<std::uint32_t>& members = components_[c];
    std::size_t left = 0;
    for (std::uint32_t i : members)
        left += islands_[i].roundDone ? 0 : 1;
    for (;;) {
        bool ranWindow = false;
        for (std::uint32_t i : members) {
            Island& is = islands_[i];
            if (is.roundDone)
                continue;
            const std::uint64_t windowsBefore = is.windows;
            if (stepIsland(i, roundLimit_))
                --left;
            ranWindow = ranWindow || is.windows != windowsBefore;
        }
        if (left == 0)
            return;
        // Drain probe: a pass that only moved clocks, with nothing left
        // at or below the round limit, is the pure-leapfrog tail — cut
        // it. The component runs on one worker from state only that
        // worker touches, so the cut is part of the reproducible
        // schedule at any jobs count.
        if (!ranWindow && componentQuietBelow(c, roundLimit_)) {
            drainAborts_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
    }
}

bool
ShardedKernel::componentQuietBelow(std::uint32_t c, Time t) const
{
    for (std::uint32_t i : components_[c]) {
        if (islands_[i].queue->nextEventTime() <= t)
            return false;
        if (inboundEarliest(i) <= t)
            return false;
    }
    return true;
}

void
ShardedKernel::workerRound(unsigned worker)
{
    using clock = std::chrono::steady_clock;
    const auto roundStart = clock::now();
    std::uint64_t busy = 0;
    // Own slice first (k = 0), so a component keeps its core from round
    // to round; then steal whole components from the other slices.
    for (unsigned k = 0; k < jobs_; ++k) {
        Worker& home = workers_[(worker + k) % jobs_];
        for (;;) {
            const std::size_t at =
                home.next.fetch_add(1, std::memory_order_relaxed);
            if (at >= home.slice.size())
                break;
            const auto t0 = clock::now();
            runComponent(home.slice[at]);
            busy += elapsedNs(t0, clock::now());
            if (k != 0)
                steals_.fetch_add(1, std::memory_order_relaxed);
        }
    }
    Worker& me = workers_[worker];
    me.busyNs += busy;
    me.totalNs += elapsedNs(roundStart, clock::now());
}

void
ShardedKernel::workerLoop(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        // Spin briefly (rounds are close together when busy), then
        // yield so oversubscribed machines still make progress.
        int spins = 0;
        while (epoch_.load(std::memory_order_acquire) == seen) {
            if (++spins > 256) {
                std::this_thread::yield();
                spins = 0;
            }
        }
        ++seen;
        if (exit_.load(std::memory_order_relaxed))
            return;
        workerRound(worker);
        outstanding_.fetch_sub(1, std::memory_order_acq_rel);
    }
}

void
ShardedKernel::dispatchRound(Time round_limit)
{
    roundLimit_ = round_limit;
    for (Worker& w : workers_) {
        w.slice.clear();
        w.next.store(0, std::memory_order_relaxed);
    }
    std::size_t liveComponents = 0;
    for (std::uint32_t c = 0; c < components_.size(); ++c) {
        bool live = false;
        for (std::uint32_t i : components_[c]) {
            Island& is = islands_[i];
            if (lb_[i] > round_limit.toNs()) {
                // Nothing can reach this island before the round limit:
                // it finishes the round here and is never scanned.
                is.done = round_limit.toNs();
                is.roundDone = true;
                ++idleIslandRounds_;
                continue;
            }
            // One below the bound: an item landing exactly on it still
            // executes — also when the round limit equals the
            // synchronized clock (run(now()) with an event at now(),
            // EventQueue::run()'s events-at-limit-run semantics).
            is.done = lb_[i] - 1;
            is.roundDone = false;
            live = true;
        }
        if (live) {
            workers_[c % jobs_].slice.push_back(c);
            ++liveComponents;
        }
    }
    liveComponentRounds_ += liveComponents;
    for (Worker& w : workers_)
        w.maxSlice = std::max<std::uint64_t>(w.maxSlice, w.slice.size());
    if (jobs_ <= 1 || liveComponents <= 1) {
        // No pool, or nothing to share: run the round here. Waking the
        // pool for one component would cost a wake-up and park per
        // round and move it to whichever worker grabbed it first.
        workerRound(0);
        return;
    }
    outstanding_.store(jobs_ - 1, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);
    workerRound(0);  // the coordinator is worker 0
    int spins = 0;
    while (outstanding_.load(std::memory_order_acquire) != 0) {
        if (++spins > 256) {
            std::this_thread::yield();
            spins = 0;
        }
    }
}

Time
ShardedKernel::earliestPending()
{
    Time earliest = Time::max();
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        const Time own =
            std::min(islands_[i].queue->nextEventTime(), inboundEarliest(i));
        lb_[i] = own.toNs();
        earliest = std::min(earliest, own);
    }
    return earliest;
}

void
ShardedKernel::relaxBounds(Time round_limit)
{
    // Multi-source shortest paths from every island's own earliest item,
    // each edge weighing one lookahead (DESIGN.md §12.d). Only bounds at
    // or below the round limit matter, so an island settled past
    // limit - L relaxes nothing: its out-neighbors would land past it.
    const std::int64_t l = lookahead_.toNs();
    const std::int64_t last = round_limit.toNs() - l;
    const auto later = std::greater<>();
    lbHeap_.clear();
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        if (lb_[i] <= last)
            lbHeap_.emplace_back(lb_[i], static_cast<std::uint32_t>(i));
    }
    std::make_heap(lbHeap_.begin(), lbHeap_.end(), later);
    while (!lbHeap_.empty()) {
        std::pop_heap(lbHeap_.begin(), lbHeap_.end(), later);
        const auto [at, i] = lbHeap_.back();
        lbHeap_.pop_back();
        if (at != lb_[i])
            continue;  // superseded by a smaller bound, already settled
        const std::int64_t reach = at + l;
        for (std::uint32_t o : islands_[i].outNbr) {
            if (reach >= lb_[o])
                continue;
            lb_[o] = reach;
            if (reach <= last) {
                lbHeap_.emplace_back(reach, o);
                std::push_heap(lbHeap_.begin(), lbHeap_.end(), later);
            }
        }
    }
}

void
ShardedKernel::syncClocks(Time t)
{
    for (Island& is : islands_)
        is.queue->syncClock(t);
    if (t > now_)
        now_ = t;
}

void
ShardedKernel::quiesceFlush(Time t)
{
    // Sequential, in island order: judge every deferred check that the
    // run left behind (channel clocks only flush an island's inbox when
    // it executes, so checks emitted in the final windows linger).
    // Event-producing parcels with effect <= t cannot exist here — the
    // conservative horizon flushed them before the owning window ran.
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        std::uint64_t parcels = 0;
        for (BarrierAgent* agent : agents_)
            parcels += agent->flushInbound(i, t, t);
        islands_[i].parcels += parcels;
    }
}

bool
ShardedKernel::runCore(Time limit, const std::function<bool()>* pred,
                       bool* pred_hit)
{
    startWorkers();
    const bool trig = trigArmed_.load(std::memory_order_relaxed);
    // Adaptive rounds apply only to predicate-free runs: for
    // runUntil()/runUntilTriggered() the round boundary *is* the stop
    // granularity, and the trigger and poll paths must stop at
    // identical virtual times, so both keep the base length.
    const bool adaptive = !windowsPinned_ && pred == nullptr && !trig;
    unsigned roundWindows = windowsPerRound_;
    for (;;) {
        // Round boundaries are the quiesce points: every worker is
        // parked, all clocks agree, channels hold only future work.
        if (trig && pred_hit != nullptr &&
            trigFired_.load(std::memory_order_relaxed)) {
            *pred_hit = true;
            ++triggerExits_;
            quiesceFlush(now_);
            return false;
        }
        if (pred != nullptr && (*pred)()) {
            *pred_hit = true;
            quiesceFlush(now_);
            return false;
        }
        const Time earliest = earliestPending();
        if (earliest == Time::max()) {
            quiesceFlush(now_);
            return true;  // drained
        }
        if (earliest > limit) {
            syncClocks(limit);
            quiesceFlush(limit);
            return false;
        }

        // The round covers roundWindows grid windows starting at the
        // slot holding the earliest pending work — idle gaps are jumped
        // here, globally and deterministically, instead of leapfrogged
        // window by window.
        const std::int64_t l = lookahead_.toNs();
        const Time base = std::max(now_, earliest);
        const Time roundStart = Time::fromNs(base.toNs() / l * l);
        const Time roundEnd = Time::fromNs(
            roundStart.toNs() +
            l * static_cast<std::int64_t>(roundWindows));
        const Time roundLimit = std::min(roundEnd - Time::ns(1), limit);
        relaxBounds(roundLimit);
        dispatchRound(roundLimit);
        ++rounds_;
        if (adaptive) {
            // Every completed busy round doubles the next one (capped):
            // long predicate-free drains quiesce O(log) instead of
            // O(length / base) times. Derived from simulation-visible
            // state only, so round placement stays jobs-invariant.
            roundsSkipped_ += roundWindows / windowsPerRound_ - 1;
            if (roundWindows < kMaxAdaptiveWindows)
                roundWindows = std::min(kMaxAdaptiveWindows,
                                        roundWindows * 2);
        }
        syncClocks(roundLimit);
    }
}

bool
ShardedKernel::run(Time limit)
{
    return runCore(limit, nullptr, nullptr);
}

bool
ShardedKernel::runUntil(const std::function<bool()>& pred, Time limit)
{
    bool hit = false;
    runCore(limit, &pred, &hit);
    return hit;
}

bool
ShardedKernel::runUntilTriggered(std::uint64_t target, Time limit)
{
    startWorkers();
    // Quiesced: seed every counter's absolute value so work retired
    // before this call counts toward the target, exactly like the
    // polling equivalent `runUntil([&]{ return sum() >= target; })`.
    std::uint64_t sum = 0;
    for (Trigger& t : triggers_) {
        t.lastSeen = t.count();
        sum += t.lastSeen;
    }
    trigSum_.store(sum, std::memory_order_relaxed);
    trigTarget_ = target;
    trigFired_.store(sum >= target, std::memory_order_relaxed);
    trigArmed_.store(true, std::memory_order_relaxed);
    bool hit = false;
    runCore(limit, nullptr, &hit);
    trigArmed_.store(false, std::memory_order_relaxed);
    return hit;
}

void
ShardedKernel::advance(Time delta)
{
    const Time target = now_ + delta;
    runCore(target, nullptr, nullptr);
    syncClocks(target);
}

std::uint64_t
ShardedKernel::executed() const
{
    std::uint64_t total = 0;
    for (const Island& is : islands_)
        total += is.queue->executed();
    return total;
}

std::size_t
ShardedKernel::pending() const
{
    std::size_t total = 0;
    for (const Island& is : islands_)
        total += is.queue->pending();
    for (std::size_t i = 0; i < islands_.size(); ++i)
        for (BarrierAgent* agent : agents_)
            total += agent->inboundPending(i);
    return total;
}

ShardedKernel::KernelStats
ShardedKernel::kernelStats() const
{
    KernelStats s;
    s.barriers = rounds_;
    s.steals = steals_.load(std::memory_order_relaxed);
    s.triggerExits = triggerExits_;
    s.drainAborts = drainAborts_.load(std::memory_order_relaxed);
    s.roundsSkipped = roundsSkipped_;
    s.idleIslandRounds = idleIslandRounds_;
    s.components = components_.size();
    s.liveComponentRounds = liveComponentRounds_;
    for (const Worker& w : workers_)
        s.maxReadyQueueDepth = std::max(s.maxReadyQueueDepth, w.maxSlice);

    // Aggregate per *logical* island: a split node's planes fold into
    // one entry (the machine they model), and logical ids that no
    // physical island maps to are dropped rather than reported as
    // zero-work islands that would fake the imbalance spread.
    std::vector<std::uint64_t> perLogical(logicalIslandCount(), 0);
    std::vector<std::uint8_t> used(logicalIslandCount(), 0);
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        const Island& is = islands_[i];
        s.windows += is.windows;
        s.channelParcels += is.parcels;
        s.maxClockLagNs = std::max(s.maxClockLagNs, is.maxLagNs);
        perLogical[logicalOf_[i]] += is.queue->executed();
        used[logicalOf_[i]] = 1;
    }
    for (std::size_t logical = 0; logical < perLogical.size(); ++logical) {
        if (!used[logical])
            continue;
        const std::uint64_t executed = perLogical[logical];
        s.maxIslandExecuted = std::max(s.maxIslandExecuted, executed);
        s.minIslandExecuted = s.executedPerIsland.empty()
                                  ? executed
                                  : std::min(s.minIslandExecuted, executed);
        s.executedPerIsland.push_back(executed);
    }
    for (const Worker& w : workers_) {
        s.workerBusyFraction.push_back(
            w.totalNs == 0 ? 0.0
                           : static_cast<double>(w.busyNs) /
                                 static_cast<double>(w.totalNs));
    }
    return s;
}

} // namespace ibsim
