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

ShardedKernel::ShardedKernel(Time lookahead, unsigned jobs,
                             ScheduleMode mode)
    : lookahead_(lookahead), jobs_(std::max(1u, jobs)), mode_(mode)
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
    for (unsigned w = 0; w < jobs_; ++w) {
        workers_.emplace_back();
        ready_.emplace_back();
    }
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
    for (std::uint32_t nbr : is.inNbr) {
        m = std::min(m,
                     islands_[nbr].done.load(std::memory_order_acquire));
    }
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

ShardedKernel::Step
ShardedKernel::stepIsland(unsigned worker, std::size_t i, Time round_limit)
{
    Island& is = islands_[i];
    EventQueue& q = *is.queue;
    const std::int64_t l = lookahead_.toNs();
    bool advanced = false;
    for (;;) {
        Time done = Time::fromNs(is.done.load(std::memory_order_relaxed));
        // Dispatch starts a live island below its bound <= round_limit,
        // and every publish at round_limit also finishes the round.
        assert(done < round_limit);

        // Read the in-neighbor clocks BEFORE probing channels: a clock
        // published at c guarantees (release/acquire) that every item
        // with effect <= c + lookahead is visible, so probing after the
        // clock read can never miss work the horizon permits consuming.
        const Time safe = safeHorizon(is);
        const Time next =
            std::min(q.nextEventTime(), inboundEarliest(i));

        if (next > round_limit) {
            // Nothing to execute this round: publish clock up to the
            // horizon (the null-message leapfrog that unblocks
            // downstream islands) and finish the round when possible.
            const Time target = std::min(round_limit, safe);
            if (target <= done) {
                is.maxLagNs = std::max(
                    is.maxLagNs, static_cast<std::uint64_t>(
                                     (round_limit - safe).toNs()));
                // Unblocks once the min in-neighbor clock passes
                // done - L (safeHorizon > done).
                is.wakeAt.store(done.toNs() - l + 1,
                                std::memory_order_relaxed);
                return advanced ? Step::Advanced : Step::Blocked;
            }
            is.done.store(target.toNs(), std::memory_order_release);
            if (useReady_)
                wakeOutNeighbors(worker, i, target.toNs());
            advanced = true;
            if (target == round_limit) {
                is.roundDone.store(true, std::memory_order_relaxed);
                doneCount_.fetch_add(1, std::memory_order_release);
                return Step::RoundDone;
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
                // Unblocks once the window is safe (min in-neighbor
                // clock >= runLimit - L).
                is.wakeAt.store(runLimit.toNs() - l,
                                std::memory_order_relaxed);
                return advanced ? Step::Advanced : Step::Blocked;
            }
            is.done.store(target.toNs(), std::memory_order_release);
            if (useReady_)
                wakeOutNeighbors(worker, i, target.toNs());
            advanced = true;
            continue;
        }

        // The drain token reads dirty under this island's claim, so
        // marking before the window's pushes keeps "clean" an honest
        // "no activity since the last visit".
        is.dirty.store(true, std::memory_order_relaxed);
        std::uint64_t parcels = 0;
        for (BarrierAgent* agent : agents_)
            parcels += agent->flushInbound(i, done, runLimit);
        is.parcels += parcels;
        q.run(runLimit);
        q.syncClock(runLimit);
        is.done.store(runLimit.toNs(), std::memory_order_release);
        if (useReady_)
            wakeOutNeighbors(worker, i, runLimit.toNs());
        ++is.windows;
        if (jobs_ == 1)
            ++seqWindowsRound_;
        if (!is.trig.empty() &&
            trigArmed_.load(std::memory_order_relaxed))
            noteTriggers(is);
        advanced = true;
        if (runLimit == round_limit) {
            is.roundDone.store(true, std::memory_order_relaxed);
            doneCount_.fetch_add(1, std::memory_order_release);
            return Step::RoundDone;
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
ShardedKernel::workerRound(unsigned worker)
{
    if (useReady_)
        workerRoundReady(worker);
    else
        workerRoundScan(worker);
}

void
ShardedKernel::workerRoundScan(unsigned worker)
{
    using clock = std::chrono::steady_clock;
    const auto roundStart = clock::now();
    std::uint64_t busy = 0;
    const std::size_t n = islands_.size();
    const bool stealing = mode_ == ScheduleMode::Stealing && jobs_ > 1;

    // Static mode: a fixed contiguous block (keeps neighboring islands —
    // e.g. the flood bench's client/server pairs — on one worker).
    // Stealing mode: scan every island, starting at this worker's block
    // so workers spread out before they collide on claims.
    std::size_t lo = static_cast<std::size_t>(worker) * n / jobs_;
    std::size_t hi = stealing
                         ? lo + n
                         : static_cast<std::size_t>(worker + 1) * n / jobs_;

    for (;;) {
        if (roundAbort_.load(std::memory_order_acquire))
            break;
        bool progress = false;
        const std::uint64_t windowsBefore = seqWindowsRound_;
        for (std::size_t s = lo; s < hi; ++s) {
            const std::size_t i = stealing ? s % n : s;
            Island& is = islands_[i];
            if (is.roundDone.load(std::memory_order_relaxed))
                continue;
            if (stealing) {
                std::uint8_t expect = 0;
                if (!is.claim.compare_exchange_strong(
                        expect, 1, std::memory_order_acquire,
                        std::memory_order_relaxed))
                    continue;
                if (is.roundDone.load(std::memory_order_relaxed)) {
                    is.claim.store(0, std::memory_order_release);
                    continue;
                }
                const auto t0 = clock::now();
                const Step step = stepIsland(worker, i, roundLimit_);
                if (step != Step::Blocked) {
                    busy += elapsedNs(t0, clock::now());
                    progress = true;
                    if (is.lastWorker != kNoWorker &&
                        is.lastWorker != worker)
                        steals_.fetch_add(1, std::memory_order_relaxed);
                    is.lastWorker = worker;
                }
                is.claim.store(0, std::memory_order_release);
            } else {
                const auto t0 = clock::now();
                const Step step = stepIsland(worker, i, roundLimit_);
                if (step != Step::Blocked) {
                    busy += elapsedNs(t0, clock::now());
                    progress = true;
                }
            }
        }
        if (doneCount_.load(std::memory_order_acquire) >= n)
            break;
        if (jobs_ == 1) {
            // Sequential drain probe: a pass that advanced clocks but
            // executed no window is the pure-leapfrog drain tail — cut
            // it the moment nothing at or below the round limit
            // remains (no races to worry about inline).
            if (seqWindowsRound_ == windowsBefore &&
                allQuietBelow(roundLimit_)) {
                drainAborts_.fetch_add(1, std::memory_order_relaxed);
                roundAbort_.store(true, std::memory_order_relaxed);
                break;
            }
        } else if (stealing && !progress) {
            if (tryTokenPass())
                break;
        }
        if (!progress)
            std::this_thread::yield();
    }

    Worker& me = workers_[worker];
    me.busyNs += busy;
    me.totalNs += elapsedNs(roundStart, clock::now());
}

void
ShardedKernel::pushReady(unsigned worker, std::uint32_t island)
{
    ReadyShard& shard = ready_[worker];
    std::lock_guard<std::mutex> lock(shard.m);
    shard.q.push_back(island);
    shard.maxDepth = std::max<std::uint64_t>(shard.maxDepth,
                                             shard.q.size());
}

bool
ShardedKernel::popReady(unsigned worker, std::uint32_t& island)
{
    {
        // Own shard: LIFO — the most recently woken island's channel
        // state is the hottest in this worker's cache.
        ReadyShard& own = ready_[worker];
        std::lock_guard<std::mutex> lock(own.m);
        if (!own.q.empty()) {
            island = own.q.back();
            own.q.pop_back();
            return true;
        }
    }
    // Steal FIFO from the other shards (oldest entry = the one most
    // likely to have accumulated runnable windows).
    for (unsigned k = 1; k < jobs_; ++k) {
        ReadyShard& other = ready_[(worker + k) % jobs_];
        std::lock_guard<std::mutex> lock(other.m);
        if (!other.q.empty()) {
            island = other.q.front();
            other.q.pop_front();
            return true;
        }
    }
    return false;
}

std::int64_t
ShardedKernel::minInNeighborClockNs(const Island& is) const
{
    std::int64_t m = Time::max().toNs();
    for (std::uint32_t nbr : is.inNbr) {
        m = std::min(m,
                     islands_[nbr].done.load(std::memory_order_acquire));
    }
    return m;
}

void
ShardedKernel::wakeOutNeighbors(unsigned worker, std::size_t i,
                                std::int64_t clock_ns)
{
    // Publisher side of the block-vs-wake handshake: clock store, then
    // a full fence, then the sched reads — pairs with the blocker's
    // Blocked store / fence / clock re-read (blockIsland()), so one of
    // the two sides always observes the other.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (std::uint32_t o : islands_[i].outNbr) {
        Island& t = islands_[o];
        if (t.sched.load(std::memory_order_relaxed) != kSchedBlocked)
            continue;
        if (clock_ns < t.wakeAt.load(std::memory_order_relaxed))
            continue;  // our clock alone cannot have unblocked it
        std::uint8_t expect = kSchedBlocked;
        if (t.sched.compare_exchange_strong(expect, kSchedReady,
                                            std::memory_order_acq_rel,
                                            std::memory_order_relaxed))
            pushReady(worker, o);
    }
}

void
ShardedKernel::blockIsland(unsigned worker, std::uint32_t island)
{
    Island& is = islands_[island];
    // stepIsland stored wakeAt before returning Blocked.
    is.sched.store(kSchedBlocked, std::memory_order_release);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // Close the lost-wakeup window: a neighbor may have crossed the
    // threshold between our block decision and the Blocked store.
    if (minInNeighborClockNs(is) >=
        is.wakeAt.load(std::memory_order_relaxed)) {
        std::uint8_t expect = kSchedBlocked;
        if (is.sched.compare_exchange_strong(expect, kSchedReady,
                                             std::memory_order_acq_rel,
                                             std::memory_order_relaxed))
            pushReady(worker, island);
    }
}

void
ShardedKernel::workerRoundReady(unsigned worker)
{
    using clock = std::chrono::steady_clock;
    const auto roundStart = clock::now();
    std::uint64_t busy = 0;
    const std::size_t n = islands_.size();

    // progress = some pop advanced an island since the last idle
    // rescan; without it the worker yields before rescanning again
    // (the rescan itself re-enqueues still-blocked islands, so it must
    // not count as progress or an idle pair of workers would spin).
    bool progress = false;
    for (;;) {
        if (roundAbort_.load(std::memory_order_acquire))
            break;
        std::uint32_t idx;
        if (popReady(worker, idx)) {
            Island& is = islands_[idx];
            std::uint8_t expect = 0;
            if (!is.claim.compare_exchange_strong(
                    expect, 1, std::memory_order_acquire,
                    std::memory_order_relaxed)) {
                // The drain token is inspecting it; hand it back.
                pushReady(worker, idx);
                std::this_thread::yield();
                continue;
            }
            is.sched.store(kSchedRunning, std::memory_order_relaxed);
            const auto t0 = clock::now();
            const Step step = stepIsland(worker, idx, roundLimit_);
            if (step != Step::Blocked) {
                busy += elapsedNs(t0, clock::now());
                progress = true;
                if (is.lastWorker != kNoWorker && is.lastWorker != worker)
                    steals_.fetch_add(1, std::memory_order_relaxed);
                is.lastWorker = worker;
            }
            if (step == Step::RoundDone) {
                is.sched.store(kSchedDone, std::memory_order_relaxed);
                is.claim.store(0, std::memory_order_release);
            } else {
                is.claim.store(0, std::memory_order_release);
                blockIsland(worker, idx);
            }
            continue;
        }
        if (doneCount_.load(std::memory_order_acquire) >= n)
            break;
        // Idle: advance the drain token, then the wake-miss safety net
        // — re-enqueue every still-blocked island (covers dense-island
        // wakes, which are deliberately not fanned out per publish, and
        // inbound work that arrived below a stale wake threshold).
        if (tryTokenPass())
            break;
        if (!progress)
            std::this_thread::yield();
        progress = false;
        for (std::size_t i = 0; i < n; ++i) {
            Island& is = islands_[i];
            if (is.sched.load(std::memory_order_relaxed) != kSchedBlocked)
                continue;
            std::uint8_t expect = kSchedBlocked;
            if (is.sched.compare_exchange_strong(expect, kSchedReady,
                                                 std::memory_order_acq_rel,
                                                 std::memory_order_relaxed))
                pushReady(worker, static_cast<std::uint32_t>(i));
        }
    }

    Worker& me = workers_[worker];
    me.busyNs += busy;
    me.totalNs += elapsedNs(roundStart, clock::now());
}

bool
ShardedKernel::tryTokenPass()
{
    if (roundAbort_.load(std::memory_order_acquire))
        return true;
    if (!useToken_)
        return false;
    if (tokenBusy_.exchange(true, std::memory_order_acquire))
        return false;  // another worker is carrying the token
    const std::size_t n = islands_.size();
    // Two consecutive fully-clean circuits prove the round tail empty:
    // a single circuit can miss an island that pushed *after* its
    // visit, but the pusher's dirty flag survives into the next
    // circuit (DESIGN.md §12.c has the induction).
    const std::uint32_t needed = static_cast<std::uint32_t>(2 * n);
    for (std::size_t visits = 0; visits < n && tokenClean_ < needed;
         ++visits) {
        Island& is = islands_[tokenPos_];
        std::uint8_t expect = 0;
        if (!is.claim.compare_exchange_strong(expect, 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
            // Someone is executing it — activity; retry here later.
            tokenClean_ = 0;
            break;
        }
        bool clean = !is.dirty.exchange(false, std::memory_order_acq_rel);
        if (clean)
            clean = is.queue->nextEventTime() > roundLimit_;
        if (clean)
            clean = inboundEarliest(tokenPos_) > roundLimit_;
        is.claim.store(0, std::memory_order_release);
        tokenClean_ = clean ? tokenClean_ + 1 : 0;
        tokenPos_ = (tokenPos_ + 1) % static_cast<std::uint32_t>(n);
    }
    bool fired = false;
    if (tokenClean_ >= needed) {
        fired = true;
        drainAborts_.fetch_add(1, std::memory_order_relaxed);
        roundAbort_.store(true, std::memory_order_release);
    }
    tokenBusy_.store(false, std::memory_order_release);
    return fired;
}

bool
ShardedKernel::allQuietBelow(Time t) const
{
    for (std::size_t i = 0; i < islands_.size(); ++i) {
        if (islands_[i].queue->nextEventTime() <= t)
            return false;
        if (inboundEarliest(i) <= t)
            return false;
    }
    return true;
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
    roundAbort_.store(false, std::memory_order_relaxed);
    tokenPos_ = 0;
    tokenClean_ = 0;
    seqWindowsRound_ = 0;
    const std::size_t n = islands_.size();
    if (useReady_) {
        for (unsigned w = 0; w < jobs_; ++w)
            ready_[w].q.clear();
    }
    std::size_t idle = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Island& is = islands_[i];
        is.dirty.store(false, std::memory_order_relaxed);
        if (lb_[i] > round_limit.toNs()) {
            // Nothing can reach this island before the round limit: it
            // finishes the round here, never queued or scanned.
            is.done.store(round_limit.toNs(), std::memory_order_relaxed);
            is.roundDone.store(true, std::memory_order_relaxed);
            is.sched.store(kSchedDone, std::memory_order_relaxed);
            ++idle;
            continue;
        }
        // One below the bound: an item landing exactly on it still
        // executes — also when the round limit equals the synchronized
        // clock (run(now()) with an event at now(), EventQueue::run()'s
        // events-at-limit-run semantics).
        is.done.store(lb_[i] - 1, std::memory_order_relaxed);
        is.roundDone.store(false, std::memory_order_relaxed);
        if (useReady_) {
            // Seed each worker's shard with its static block — the same
            // spread Static mode pins, so the first pops have affinity
            // and workers fan out before the first steal.
            is.sched.store(kSchedReady, std::memory_order_relaxed);
            const unsigned owner = static_cast<unsigned>(
                i * static_cast<std::size_t>(jobs_) / n);
            ready_[owner].q.push_back(static_cast<std::uint32_t>(i));
        }
    }
    if (useReady_) {
        for (unsigned w = 0; w < jobs_; ++w) {
            ready_[w].maxDepth = std::max<std::uint64_t>(
                ready_[w].maxDepth, ready_[w].q.size());
        }
    }
    idleIslandRounds_ += idle;
    doneCount_.store(idle, std::memory_order_relaxed);
    if (jobs_ <= 1) {
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
    useReady_ = mode_ == ScheduleMode::Stealing && jobs_ > 1 &&
                stealPolicy_ == StealPolicy::ReadyQueue;
    useToken_ = mode_ == ScheduleMode::Stealing && jobs_ > 1;
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
        // A token abort is sound only when nothing at or below the
        // round limit was skipped; the quiesced re-check is free here.
        assert(!roundAbort_.load(std::memory_order_relaxed) ||
               allQuietBelow(roundLimit));
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
    for (const ReadyShard& shard : ready_) {
        s.maxReadyQueueDepth =
            std::max(s.maxReadyQueueDepth, shard.maxDepth);
    }

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
