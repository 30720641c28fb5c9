#include "chaos/invariant_monitor.hh"

#include <algorithm>
#include <string>

#include "chaos/fault_injector.hh"
#include "cluster/cluster.hh"
#include "swrel/soft_reliable.hh"
#include "verbs/completion_queue.hh"

namespace ibsim {
namespace chaos {

namespace {

constexpr std::uint64_t fnvPrime = 1099511628211ull;

std::uint64_t
mix(std::uint64_t hash, std::uint64_t value)
{
    return (hash ^ value) * fnvPrime;
}

std::string
flowStr(std::uint16_t lid, std::uint32_t qpn)
{
    return "lid=" + std::to_string(lid) + " qpn=" + std::to_string(qpn);
}

/** Shard::flowIndex key of a flow. */
std::uint64_t
flowId(std::uint16_t lid, std::uint32_t qpn)
{
    return (static_cast<std::uint64_t>(lid) << 32) | qpn;
}

} // namespace

std::string
Violation::str() const
{
    return "[" + at.str() + "] " + invariant + " " + flowStr(lid, qpn) +
           ": " + detail;
}

InvariantMonitor::InvariantMonitor(net::Fabric& fabric) : fabric_(fabric)
{
    shards_.resize(fabric_.islandCount());
    if (fabric_.sharded()) {
        for (Shard& shard : shards_)
            shard.out.resize(shards_.size());
        fabric_.shardedKernel()->addBarrierAgent(this);
    }
    fabric_.addTap([this](const net::Packet& pkt, bool dropped) {
        onEgress(pkt, dropped);
    });
}

InvariantMonitor::~InvariantMonitor()
{
    if (fabric_.sharded())
        fabric_.shardedKernel()->removeBarrierAgent(this);
}

void
InvariantMonitor::watch(rnic::Rnic& rnic, rnic::QpContext& qp)
{
    const FlowKey key{rnic.lid(), qp.qpn};
    Shard& shard = shardOf(rnic.lid());
    const bool fresh = shard.flows.find(key) == shard.flows.end();
    FlowState& st = shard.flows[key];
    shard.flowIndex[flowId(key.lid, key.qpn)] = &st;
    st.rnic = &rnic;
    st.qp = &qp;
    if (fresh) {
        st.lastNextPsn = qp.nextPsn;
        st.attachPsn = qp.nextPsn;
        st.lateAttach = qp.nextPsn != 0 || !qp.outstanding.empty();
    }

    if (tappedRnics_.insert(&rnic).second) {
        const std::uint16_t lid = rnic.lid();
        rnic.addSendPostTap(
            [this, lid](const rnic::QpContext& q, const rnic::SendWqe& w) {
                onSendPost(lid, q, w);
            });
        rnic.addRecvPostTap(
            [this, lid](const rnic::QpContext& q, const rnic::RecvWqe& w) {
                onRecvPost(lid, q, w);
            });
    }
    if (qp.cq != nullptr && tappedCqs_.insert(qp.cq).second) {
        const std::uint16_t lid = rnic.lid();
        qp.cq->addTap([this, lid](const verbs::WorkCompletion& wc) {
            onCompletion(lid, wc);
        });
    }
}

void
InvariantMonitor::watchAll(Cluster& cluster)
{
    for (std::size_t i = 0; i < cluster.nodeCount(); ++i) {
        rnic::Rnic& rnic = cluster.node(i).rnic();
        for (rnic::QpContext* qp : rnic.allQps())
            watch(rnic, *qp);
    }
}

InvariantMonitor::Shard&
InvariantMonitor::shardOf(std::uint16_t lid)
{
    return shards_[fabric_.sharded() ? fabric_.islandOf(lid) : 0];
}

InvariantMonitor::Shard&
InvariantMonitor::egressShard()
{
    return shards_[fabric_.egressIsland()];
}

InvariantMonitor::FlowState*
InvariantMonitor::flow(std::uint16_t lid, std::uint32_t qpn)
{
    const auto& index = shardOf(lid).flowIndex;
    auto it = index.find(flowId(lid, qpn));
    return it == index.end() ? nullptr : it->second;
}

void
InvariantMonitor::emit(Shard& shard, const std::string& invariant, Time at,
                       std::uint16_t lid, std::uint32_t qpn,
                       const std::string& detail)
{
    ++shard.violationCount;
    if (shard.violations.size() < storedCap)
        shard.violations.push_back({invariant, at, lid, qpn, detail});
}

void
InvariantMonitor::onEgress(const net::Packet& pkt, bool dropped)
{
    // Everything below mutates only the executing island's shard — the
    // source flow of every non-injected packet lives on that island
    // (fabric routing), injected packets only touch the hash and the
    // source-flow attribution flag. The two remote-flow checks defer.
    Shard& shard = egressShard();
    ++shard.packetsObserved;
    shard.hash = mix(shard.hash, static_cast<std::uint64_t>(pkt.op));
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.srcLid) << 16) |
                                     pkt.dstLid);
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.srcQpn) << 32) |
                                     pkt.dstQpn);
    shard.hash = mix(shard.hash, pkt.psn);
    shard.hash = mix(shard.hash, (std::uint64_t(pkt.length) << 32) |
                                     (pkt.segIndex << 8) | pkt.segCount);
    shard.hash = mix(shard.hash,
                     (std::uint64_t(pkt.chaosFlags) << 8) |
                         (std::uint64_t(pkt.retransmission) << 2) |
                         (std::uint64_t(pkt.dammed) << 1) |
                         std::uint64_t(dropped));

    // Injected noise (duplicates, corruption, forgeries) is the
    // injector's doing, not the endpoint's: excluded from bookkeeping.
    if (pkt.chaosFlags != 0) {
        // One exception must be recorded: corruption mangles packets the
        // endpoint really emitted, and it may hit the PSN or opcode of a
        // replay-cache answer — the A1 ledger then cannot attribute the
        // answer and would report a false "unanswered duplicate". The
        // replayed mark and the source address survive corruption (the
        // injector never touches them), so note the broken evidence
        // chain and let finalCheck() stand down A1-lost for this flow.
        if ((pkt.chaosFlags & net::Packet::chaosCorrupted) != 0 &&
            pkt.replayed) {
            FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
            if (rs != nullptr)
                rs->atomicAnswerAttributionLost = true;
        }
        // A second exception, same evidence-chain reasoning: an
        // uncorrupted clone of an atomic answer proves the responder
        // emitted that answer. When a later erasing stage (drop, flap,
        // loss model) removes the original delivery in the same
        // pipeline pass, only the clone reaches this tap — skipping it
        // would undercount the A1 ledger into a false "replay lost".
        // Credit it; over-crediting when both copies survive is safe
        // because the A1 check is one-sided (answered < required).
        else if ((pkt.chaosFlags & net::Packet::chaosDuplicated) != 0 &&
                 pkt.op == net::Opcode::AtomicResponse) {
            FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
            if (rs != nullptr) {
                auto must = rs->atomicMustAnswer.find(pkt.psn);
                if (must != rs->atomicMustAnswer.end())
                    ++rs->atomicAnswered[pkt.psn];
            }
        }
        return;
    }

    // CM re-arm handshake traffic is control plane: it carries reset
    // epochs, not transport PSNs, so the request/response families must
    // not book it (its PSN field would alias PSN 0 of the new stream).
    // Already hash-mixed above, so it still shows in trace goldens.
    if (pkt.op == net::Opcode::CmRearm || pkt.op == net::Opcode::CmRearmAck)
        return;

    if (isRequestOpcode(pkt.op))
        onRequestEgress(shard, pkt, dropped);
    else
        onResponseEgress(shard, pkt, dropped);
}

void
InvariantMonitor::syncEpoch(FlowState& st)
{
    if (st.qp == nullptr || st.qp->resetEpoch == st.lastEpoch)
        return;
    // Recovery restarted the PSN stream from zero: re-anchor every
    // PSN-keyed ledger. The completion ledgers (C1/C2/F1) survive on
    // purpose — a recovered QP re-delivering an already-acked WR must
    // still trip send-exactly-once.
    st.lastEpoch = st.qp->resetEpoch;
    st.freshSeen.clear();
    st.anyPostSeen = false;
    st.lastNextPsn = st.qp->nextPsn;
    st.attachPsn = 0;
    st.lateAttach = false;
    st.atomicMustAnswer.clear();
    st.atomicAnswered.clear();
    st.atomicRespPayload.clear();
    st.anyFreshData = false;
    st.anyFreshAtomic = false;
}

void
InvariantMonitor::onRequestEgress(Shard& shard, const net::Packet& pkt,
                                  bool dropped)
{
    const Time now = fabric_.islandEvents(fabric_.egressIsland()).now();
    FlowState* st = flow(pkt.srcLid, pkt.srcQpn);
    if (st != nullptr && st->qp != nullptr) {
        syncEpoch(*st);
        const rnic::QpContext& qp = *st->qp;
        // A READ reserves [psn, psn+segCount) with one wire packet; all
        // other requests occupy one PSN per packet.
        const std::uint32_t span =
            pkt.op == net::Opcode::ReadRequest ? pkt.segCount : 1;
        const std::uint32_t last = (pkt.psn + span - 1) & 0xffffff;

        // Service-type verb/fire-and-forget contracts (V1/U1/V3): judged
        // before the late-attach gate because they hold for every packet
        // the flow ever emits, whenever we started watching.
        const verbs::Transport transport = qp.config.transport;
        if (transport == verbs::Transport::Ud) {
            if (pkt.op != net::Opcode::Send) {
                emit(shard, "ud-verb", now, pkt.srcLid, pkt.srcQpn,
                     std::string(net::opcodeName(pkt.op)) +
                         " emitted by a UD flow (SEND only)");
            }
            if (pkt.retransmission) {
                emit(shard, "ud-no-retransmit", now, pkt.srcLid, pkt.srcQpn,
                     "UD datagram psn=" + std::to_string(pkt.psn) +
                         " marked as a retransmission");
            }
        } else if (transport == verbs::Transport::Uc) {
            if (pkt.op != net::Opcode::Send &&
                pkt.op != net::Opcode::WriteRequest) {
                emit(shard, "uc-verb", now, pkt.srcLid, pkt.srcQpn,
                     std::string(net::opcodeName(pkt.op)) +
                         " emitted by a UC flow (SEND/WRITE only)");
            }
            if (pkt.retransmission) {
                emit(shard, "uc-no-retransmit", now, pkt.srcLid, pkt.srcQpn,
                     "UC psn=" + std::to_string(pkt.psn) +
                         " marked as a retransmission");
            }
        }

        // Late attach: PSNs below the attach snapshot were posted before
        // we were watching, so their first (fresh) transmission is not
        // ours to judge.
        if (st->lateAttach && rnic::psnDiff(pkt.psn, st->attachPsn) < 0)
            return;
        if (!pkt.retransmission) {
            for (std::uint32_t i = 0; i < span; ++i) {
                const std::uint32_t p = (pkt.psn + i) & 0xffffff;
                if (!st->freshSeen.insert(p).second) {
                    emit(shard, "fresh-once", now, pkt.srcLid, pkt.srcQpn,
                         "fresh " + std::string(net::opcodeName(pkt.op)) +
                             " reuses psn=" + std::to_string(p));
                }
            }
            if (rnic::psnDiff(last, qp.nextPsn) >= 0) {
                emit(shard, "fresh-posted", now, pkt.srcLid, pkt.srcQpn,
                     "fresh psn=" + std::to_string(pkt.psn) +
                         " beyond posted range (nextPsn=" +
                         std::to_string(qp.nextPsn) + ")");
            }
        } else if (transport == verbs::Transport::Rc) {
            if (rnic::psnDiff(last, qp.nextPsn) >= 0) {
                emit(shard, "retrans-posted", now, pkt.srcLid, pkt.srcQpn,
                     "retransmitted psn=" + std::to_string(pkt.psn) +
                         " beyond posted range (nextPsn=" +
                         std::to_string(qp.nextPsn) + ")");
            }
            if (!qp.outstanding.empty() &&
                rnic::psnDiff(pkt.psn, qp.outstanding.front().psn) < 0) {
                emit(shard, "retrans-window", now, pkt.srcLid, pkt.srcQpn,
                     "retransmitted psn=" + std::to_string(pkt.psn) +
                         " below go-back-N window head=" +
                         std::to_string(qp.outstanding.front().psn));
            }
        }
    }

    // A1 bookkeeping: a duplicate atomic delivered inside the responder's
    // executed range MUST be answered from the replay cache — silence
    // means the cache evicted a record the PSN window still required.
    // Judged on egress-time responder state (expectedPsn only advances,
    // so "already executed" here still holds at delivery). Excluded:
    // packets that never arrive (dropped), dammed exchanges (lost by the
    // quirk before the responder sees them), and error-state responders.
    // A responder on another island is judged at the next window barrier
    // instead — still before the request's delivery, so the same
    // only-advances argument applies.
    if (pkt.op == net::Opcode::AtomicRequest && !dropped && !pkt.dammed) {
        const std::size_t dstIsland =
            fabric_.sharded() ? fabric_.islandOf(pkt.dstLid) : 0;
        if (fabric_.sharded() && dstIsland != fabric_.egressIsland()) {
            shard.out[dstIsland].push(
                (now + fabric_.shardedKernel()->lookahead()).toNs(),
                {now, pkt.wireId, 0, pkt.op, pkt.dstLid, pkt.dstQpn,
                 pkt.psn, pkt.epoch});
        } else {
            judgeAtomicMustAnswer(pkt.dstLid, pkt.dstQpn, pkt.psn,
                                  pkt.epoch);
        }
    }
}

void
InvariantMonitor::judgeAtomicMustAnswer(std::uint16_t dst_lid,
                                        std::uint32_t dst_qpn,
                                        std::uint32_t psn,
                                        std::uint16_t epoch)
{
    FlowState* resp = flow(dst_lid, dst_qpn);
    if (resp != nullptr && resp->qp != nullptr &&
        resp->qp->config.transport == verbs::Transport::Rc &&
        !resp->qp->errorState &&
        resp->qp->resetEpoch == epoch &&
        rnic::psnDiff(psn, resp->qp->expectedPsn) < 0) {
        ++resp->atomicMustAnswer[psn];
    }
}

void
InvariantMonitor::onResponseEgress(Shard& shard, const net::Packet& pkt,
                                   bool /*dropped*/)
{
    const Time now = fabric_.islandEvents(fabric_.egressIsland()).now();

    // Responder-role checks, judged against the emitting (source) flow.
    FlowState* rs = flow(pkt.srcLid, pkt.srcQpn);
    if (rs != nullptr && rs->qp != nullptr) {
        syncEpoch(*rs);
        const verbs::Transport transport = rs->qp->config.transport;
        if (transport == verbs::Transport::Ud ||
            transport == verbs::Transport::Uc) {
            // V2: no ACK/NAK/response machinery exists for UD/UC.
            emit(shard,
                 transport == verbs::Transport::Ud ? "ud-one-way"
                                                   : "uc-one-way",
                 now, pkt.srcLid, pkt.srcQpn,
                 std::string(net::opcodeName(pkt.op)) +
                     " emitted by a one-way flow");
        } else {
            if (pkt.op == net::Opcode::AtomicResponse) {
                // A1 value consistency: every answer for one PSN carries
                // the same original value; a re-executing responder
                // returns the post-update value instead.
                auto [it, first] =
                    rs->atomicRespPayload.try_emplace(pkt.psn, pkt.payload);
                if (!first && it->second != pkt.payload) {
                    emit(shard, "atomic-replay-value", now, pkt.srcLid,
                         pkt.srcQpn,
                         "atomic psn=" + std::to_string(pkt.psn) +
                             " answered with a different value than its "
                             "first response (responder re-executed)");
                }
                auto must = rs->atomicMustAnswer.find(pkt.psn);
                if (must != rs->atomicMustAnswer.end())
                    ++rs->atomicAnswered[pkt.psn];
            } else if (pkt.op == net::Opcode::RnrNak ||
                       (pkt.op == net::Opcode::Nak &&
                        pkt.nak == net::NakCode::RemoteAccessError)) {
                // A duplicate atomic answered with RNR or an access NAK
                // is answered, not lost (PSN-sequence NAKs reference
                // expectedPsn, never the duplicate, so they don't count).
                auto must = rs->atomicMustAnswer.find(pkt.psn);
                if (must != rs->atomicMustAnswer.end())
                    ++rs->atomicAnswered[pkt.psn];
            }

            // A2: fresh (non-replayed) executions leave the responder in
            // expectedPsn order, so an atomic's response PSN exceeds
            // every earlier fresh data response and no fresh READ data
            // follows at or below an answered atomic's PSN. Replay-cache
            // re-serves are exempt: they answer old PSNs by design.
            if (!pkt.replayed) {
                if (pkt.op == net::Opcode::AtomicResponse) {
                    if (rs->anyFreshData &&
                        rnic::psnDiff(pkt.psn, rs->lastFreshDataPsn) <= 0) {
                        emit(shard, "atomic-serialization", now, pkt.srcLid,
                             pkt.srcQpn,
                             "fresh atomic response psn=" +
                                 std::to_string(pkt.psn) +
                                 " does not serialize after data response "
                                 "psn=" +
                                 std::to_string(rs->lastFreshDataPsn));
                    }
                    rs->anyFreshData = true;
                    rs->lastFreshDataPsn = pkt.psn;
                    rs->anyFreshAtomic = true;
                    rs->lastFreshAtomicPsn = pkt.psn;
                } else if (pkt.op == net::Opcode::ReadResponse) {
                    if (rs->anyFreshAtomic &&
                        rnic::psnDiff(pkt.psn, rs->lastFreshAtomicPsn) <=
                            0) {
                        emit(shard, "atomic-serialization", now, pkt.srcLid,
                             pkt.srcQpn,
                             "fresh read response psn=" +
                                 std::to_string(pkt.psn) +
                                 " emitted at/below answered atomic psn=" +
                                 std::to_string(rs->lastFreshAtomicPsn));
                    }
                    rs->anyFreshData = true;
                    rs->lastFreshDataPsn = pkt.psn;
                }
            }
        }
    }

    // W4: judge the response against the requester (the destination
    // flow) it acknowledges. RC only — one-way flows never expect one.
    // A requester on another island is judged at the next window
    // barrier: nextPsn only advances and the barrier precedes the
    // response's arrival, so the barrier-time check is exactly the
    // invariant's arrival-time meaning.
    const std::size_t dstIsland =
        fabric_.sharded() ? fabric_.islandOf(pkt.dstLid) : 0;
    if (fabric_.sharded() && dstIsland != fabric_.egressIsland()) {
        shard.out[dstIsland].push(
            (now + fabric_.shardedKernel()->lookahead()).toNs(),
            {now, pkt.wireId, 1, pkt.op, pkt.dstLid, pkt.dstQpn, pkt.psn,
             pkt.epoch});
        return;
    }
    judgeAckCoherence(shardOf(pkt.dstLid), now, pkt.op, pkt.dstLid,
                      pkt.dstQpn, pkt.psn, pkt.epoch);
}

void
InvariantMonitor::judgeAckCoherence(Shard& shard, Time at, net::Opcode op,
                                    std::uint16_t dst_lid,
                                    std::uint32_t dst_qpn,
                                    std::uint32_t psn, std::uint16_t epoch)
{
    FlowState* st = flow(dst_lid, dst_qpn);
    if (st == nullptr || st->qp == nullptr ||
        st->qp->config.transport != verbs::Transport::Rc ||
        st->qp->resetEpoch != epoch) {
        return;
    }
    if (rnic::psnDiff(psn, st->qp->nextPsn) >= 0) {
        emit(shard, "ack-coherence", at, dst_lid, dst_qpn,
             std::string(net::opcodeName(op)) + " references psn=" +
                 std::to_string(psn) +
                 " never posted by the requester (nextPsn=" +
                 std::to_string(st->qp->nextPsn) + ")");
    }
}

void
InvariantMonitor::onSendPost(std::uint16_t lid, const rnic::QpContext& qp,
                             const rnic::SendWqe& wqe)
{
    FlowState* st = flow(lid, qp.qpn);
    if (st == nullptr)
        return;
    syncEpoch(*st);
    // P1: the post tap fires before PSN assignment, so qp.nextPsn is the
    // value every earlier post advanced it to — it must never regress.
    // Holds for every transport: UC/UD assign from the same counter.
    if (st->anyPostSeen &&
        rnic::psnDiff(qp.nextPsn, st->lastNextPsn) < 0) {
        emit(shardOf(lid), "psn-monotonic",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid, qp.qpn,
             "nextPsn regressed " + std::to_string(st->lastNextPsn) +
                 " -> " + std::to_string(qp.nextPsn));
    }
    st->anyPostSeen = true;
    st->lastNextPsn = qp.nextPsn;
    ++st->sendPosted;
    ++st->sendPostedByWr[wqe.wrId];
}

void
InvariantMonitor::onRecvPost(std::uint16_t lid, const rnic::QpContext& qp,
                             const rnic::RecvWqe& wqe)
{
    FlowState* st = flow(lid, qp.qpn);
    if (st == nullptr)
        return;
    ++st->recvPostedByWr[wqe.wrId];
}

void
InvariantMonitor::onCompletion(std::uint16_t lid,
                               const verbs::WorkCompletion& wc)
{
    FlowState* st = flow(lid, wc.qpn);
    if (st == nullptr)
        return;
    // E1: an Error-state QP must not produce *successful* completions.
    // Flush completions drain legally (and RcRequester pushes them
    // before flipping the state); a success here means the send engine
    // kept delivering past the error transition.
    if (wc.ok() && st->qp != nullptr &&
        st->qp->state == rnic::QpState::Error) {
        emit(shardOf(lid), "error-qp-completion",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid, wc.qpn,
             "successful completion wrId=" + std::to_string(wc.wrId) +
                 " delivered while the QP is in the Error state");
    }
    if (wc.opcode == verbs::WrOpcode::Recv) {
        // Late attach: a completion for a RECV we never saw posted
        // belongs to the pre-attach era, not to the oracle.
        if (st->lateAttach && st->recvPostedByWr[wc.wrId] == 0)
            return;
        ++st->recvCompleted;
        const std::uint64_t done = ++st->recvCompletedByWr[wc.wrId];
        if (done > st->recvPostedByWr[wc.wrId]) {
            emit(shardOf(lid), "recv-exactly-once",
                 fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid,
                 wc.qpn,
                 "wrId=" + std::to_string(wc.wrId) + " completed " +
                     std::to_string(done) + "x but posted " +
                     std::to_string(st->recvPostedByWr[wc.wrId]) + "x");
        }
        return;
    }
    // Late attach: likewise for sends posted before watching started —
    // skipping them keeps C1 and F1 judging observed posts only.
    if (st->lateAttach && st->sendPostedByWr[wc.wrId] == 0)
        return;
    ++st->sendCompleted;
    const std::uint64_t done = ++st->sendCompletedByWr[wc.wrId];
    if (done > st->sendPostedByWr[wc.wrId]) {
        emit(shardOf(lid), "send-exactly-once",
             fabric_.islandEvents(fabric_.islandOf(lid)).now(), lid,
             wc.qpn,
             "wrId=" + std::to_string(wc.wrId) + " completed " +
                 std::to_string(done) + "x but posted " +
                 std::to_string(st->sendPostedByWr[wc.wrId]) + "x");
    }
}

void
InvariantMonitor::finalCheck()
{
    // Runs after the simulation (never from a worker); shards are
    // visited in island order, so the output is worker-count-invariant.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        Shard& shard = shards_[i];
        const Time at = fabric_.islandEvents(i).now();
        for (auto& [key, st] : shard.flows) {
            if (st.sendCompleted != st.sendPosted) {
                emit(shard, "send-completion-missing", at, key.lid, key.qpn,
                     std::to_string(st.sendPosted) +
                         " send WRs posted but " +
                         std::to_string(st.sendCompleted) + " completed");
            }

            // A1: every delivered executed-range duplicate atomic must
            // have drawn an answer (replay cache, RNR or access NAK) by
            // drain. Stand down when the injector corrupted a replay
            // answer in flight: the ledger can no longer attribute
            // answers to PSNs.
            if (!st.atomicAnswerAttributionLost) {
                for (const auto& [psn, must] : st.atomicMustAnswer) {
                    const auto it = st.atomicAnswered.find(psn);
                    const std::uint64_t answered =
                        it == st.atomicAnswered.end() ? 0 : it->second;
                    if (answered < must) {
                        emit(shard, "atomic-replay-lost", at, key.lid,
                             key.qpn,
                             "duplicate atomic psn=" + std::to_string(psn) +
                                 " delivered " + std::to_string(must) +
                                 "x but answered " +
                                 std::to_string(answered) +
                                 "x (replay cache lost a required record)");
                    }
                }
            }

            // U3: datagrams delivered to a UD flow reconcile exactly as
            // RECV completions plus counted drops — nothing vanishes
            // silently. (Late-attach flows skip pre-attach completions,
            // so the books cannot balance; they are excluded.)
            if (st.qp != nullptr && !st.lateAttach &&
                st.qp->config.transport == verbs::Transport::Ud) {
                const auto& qs = st.qp->stats;
                if (qs.udDeliveredSends != st.recvCompleted + qs.udDrops) {
                    emit(shard, "ud-silent-drop", at, key.lid, key.qpn,
                         std::to_string(qs.udDeliveredSends) +
                             " datagrams delivered but " +
                             std::to_string(st.recvCompleted) +
                             " received + " + std::to_string(qs.udDrops) +
                             " counted drops");
                }
            }
        }
    }
}

std::uint64_t
InvariantMonitor::flushInbound(std::size_t island, Time now, Time horizon)
{
    Shard& dst = shards_[island];
    std::vector<CrossRecord>& in = dst.inbox;
    in.clear();

    // Window flushes (now < horizon) drain by the channel key, at +
    // lookahead: every record covered by the horizon is visible under
    // the channel-clock protocol, and the shadowed packet cannot have
    // been delivered yet, so the judgement batch is a pure function of
    // virtual state. Quiesce flushes (now == horizon) run sequentially
    // after the workers joined — everything is visible, so judge all
    // records with at <= now instead of stranding the sub-lookahead
    // tail of a limit-cut run.
    const Time lookahead = fabric_.shardedKernel()->lookahead();
    const std::int64_t threshold = now == horizon
                                       ? (now + lookahead).toNs()
                                       : horizon.toNs();
    // Cross records travel the same declared routes as the packets they
    // shadow, so only in-neighbor shards can hold work for this island.
    for (std::uint32_t src_index :
         fabric_.shardedKernel()->inNeighbors(island)) {
        shards_[src_index].out[island].drainUpTo(
            threshold,
            [lookahead](const CrossRecord& r) {
                return (r.at + lookahead).toNs();
            },
            in);
    }
    if (in.empty())
        return 0;

    // Same canonical order as the fabric's parcel merge: deterministic
    // whatever the worker count or source-island completion order.
    std::sort(in.begin(), in.end(),
              [](const CrossRecord& a, const CrossRecord& b) {
                  return a.at != b.at ? a.at < b.at : a.wireId < b.wireId;
              });
    for (const CrossRecord& rec : in) {
        if (rec.kind == 0)
            judgeAtomicMustAnswer(rec.dstLid, rec.dstQpn, rec.psn,
                                  rec.epoch);
        else
            judgeAckCoherence(dst, rec.at, rec.op, rec.dstLid, rec.dstQpn,
                              rec.psn, rec.epoch);
    }
    return in.size();
}

void
InvariantMonitor::checkSwrel(const swrel::SoftReliableChannel& channel)
{
    Shard& shard = shards_.front();
    const Time at = fabric_.events().now();
    if (channel.delivered().size() != channel.deliveredSeqCount()) {
        emit(shard, "swrel-exactly-once", at, 0, 0,
             std::to_string(channel.delivered().size()) +
                 " deliveries for " +
                 std::to_string(channel.deliveredSeqCount()) +
                 " distinct sequence numbers");
    }
    if (channel.stats().delivered != channel.delivered().size()) {
        emit(shard, "swrel-exactly-once", at, 0, 0,
             "delivered counter " +
                 std::to_string(channel.stats().delivered) +
                 " disagrees with delivery log size " +
                 std::to_string(channel.delivered().size()));
    }
    for (std::uint64_t seq = 1; seq <= channel.sentCount(); ++seq) {
        if (channel.acked(seq) && channel.failed(seq)) {
            emit(shard, "swrel-exactly-once", at, 0, 0,
                 "seq=" + std::to_string(seq) +
                     " reported both acked and failed");
        }
    }
}

std::uint64_t
InvariantMonitor::violationCount() const
{
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
        total += shard.violationCount;
    return total;
}

const std::vector<Violation>&
InvariantMonitor::violations() const
{
    if (shards_.size() == 1)
        return shards_.front().violations;
    mergedViolations_.clear();
    for (const Shard& shard : shards_) {
        mergedViolations_.insert(mergedViolations_.end(),
                                 shard.violations.begin(),
                                 shard.violations.end());
    }
    return mergedViolations_;
}

std::uint64_t
InvariantMonitor::traceHash() const
{
    // One shard: the raw stream — byte-identical to the pre-sharding
    // monitor, so the repo's single-queue goldens stand. Several shards:
    // fold the per-island streams in island order.
    if (shards_.size() == 1)
        return shards_.front().hash;
    std::uint64_t hash = 14695981039346656037ull;
    for (const Shard& shard : shards_)
        hash = mix(hash, shard.hash);
    return hash;
}

std::uint64_t
InvariantMonitor::packetsObserved() const
{
    std::uint64_t total = 0;
    for (const Shard& shard : shards_)
        total += shard.packetsObserved;
    return total;
}

std::string
InvariantMonitor::report() const
{
    const std::uint64_t total = violationCount();
    std::string out = "invariant monitor: ";
    if (total == 0) {
        out += "clean (" + std::to_string(packetsObserved()) +
               " packets observed)\n";
        return out;
    }
    const std::vector<Violation>& stored = violations();
    out += std::to_string(total) + " violation(s)";
    if (total > stored.size())
        out += " (first " + std::to_string(stored.size()) + " shown)";
    out += "\n";
    for (const auto& v : stored)
        out += "  " + v.str() + "\n";
    return out;
}

} // namespace chaos
} // namespace ibsim
