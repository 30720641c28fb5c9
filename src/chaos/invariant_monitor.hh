/**
 * @file
 * Online invariant oracle for the full transport surface (RC/UC/UD).
 *
 * The chaos engine (fault_injector.hh) answers "can we provoke this fault
 * class?"; the monitor answers "did the transport stay correct while it
 * happened?". It taps the fabric at egress, the RNIC post paths, and the
 * completion queues, and checks the guarantees the paper's experiments
 * lean on — exactly-once completion per posted WR (Sec. II: RC "guarantees
 * lossless ordered delivery"), go-back-N recovery staying inside the
 * posted PSN window (Fig. 8), ACK/NAK coherence, exactly-once atomics,
 * and the fire-and-forget contracts of UC/UD — emitting structured
 * Violation reports instead of asserting.
 *
 * Invariants checked (every transport unless noted):
 *  P1 psn-monotonic       a QP's nextPsn never moves backwards across posts
 *  W1 fresh-once          a fresh (non-retransmitted) request PSN appears
 *                         on the wire at most once per flow
 *  W2 fresh-posted        fresh request PSNs lie inside the posted range
 *  W3 retrans-posted      RC: retransmitted PSNs lie inside the posted
 *                         range
 *  W4 ack-coherence       RC: ACK/NAK/response PSNs arriving at a
 *                         requester reference a PSN it actually posted
 *  W5 retrans-window      RC: retransmissions never fall below the
 *                         go-back-N window (the oldest incomplete WQE)
 *  C1 send-exactly-once   per (flow, wrId): send completions <= posts
 *  C2 recv-exactly-once   per (flow, wrId): recv completions <= posts
 *                         (a duplicate RC delivery would consume a second
 *                         RECV and trip this)
 *  F1 send-completion     finalCheck(): every posted send WR completed
 *     -missing            exactly once (drained-workload runs only).
 *                         For UC/UD — whose WRs complete at post — C1+F1
 *                         together are the per-packet completion contract.
 *  A1 atomic-replay       RC atomics are exactly-once: every AtomicResponse
 *     -value / -lost      a flow emits for one PSN carries the same
 *                         original value (a re-executing responder returns
 *                         a different one — "-value", at egress), and every
 *                         delivered duplicate atomic inside the responder's
 *                         executed range is answered from the replay cache
 *                         ("-lost", at finalCheck(): silence means the
 *                         cache lost a record it was required to hold)
 *  A2 atomic-             fresh (non-replayed) atomic responses serialize
 *     serialization       against overlapping READ response streams: an
 *                         atomic's response PSN exceeds every earlier fresh
 *                         data response, and no fresh READ data is emitted
 *                         at or below an already-answered atomic's PSN
 *  U1 ud-no-retransmit    a UD flow never marks a datagram as a
 *                         retransmission (fire-and-forget; PSN reuse on a
 *                         UD flow additionally trips W1)
 *  U3 ud-silent-drop      finalCheck(): datagrams delivered to a UD flow
 *                         reconcile exactly as RECV completions plus the
 *                         responder's counted drops (QpStats::udDrops) —
 *                         nothing falls through silently. (Assumes the CQ
 *                         is not under chaos pressure: a lost completion
 *                         is exactly the kind of silent loss this flags.)
 *  V1 ud-verb / uc-verb   request opcodes match the service type: UD
 *                         carries SENDs only, UC carries SEND/WRITE only
 *  V2 ud-one-way /        UD/UC flows never emit response-class packets
 *     uc-one-way          (no ACK/NAK machinery exists for them)
 *  V3 uc-no-retransmit    a UC flow never marks a packet as retransmitted
 *  S1 swrel-exactly-once  SoftReliableChannel delivered each sequence
 *                         number at most once, and no message is both
 *                         acked and failed
 *  E1 error-qp-completion a QP in the Error state never produces a
 *                         *successful* completion (flush completions
 *                         drain legally; RcRequester pushes them before
 *                         the Error transition)
 *
 * QP recovery (rnic re-arm, QpContext::resetEpoch advancing): the PSN
 * stream restarts from zero, so on the first post/egress of a new epoch
 * the wire bookkeeping (W1 fresh-set, P1 anchor, A1/A2 atomic ledgers)
 * re-anchors; the completion ledgers (C1/C2/F1) deliberately survive —
 * a recovered QP re-delivering an already-acked WR still trips
 * send-exactly-once, which is the "recovery must not re-deliver" rule.
 * CM re-arm handshake packets (CmRearm/CmRearmAck) are hash-mixed but
 * excluded from request/response bookkeeping (they carry control-plane
 * epochs, not transport PSNs), and cross-island deferred checks carry
 * the packet's epoch so a judgement never crosses a reset boundary.
 *
 * Packets carrying chaos provenance flags (duplicated / corrupted /
 * forged — see net::Packet) are recognized as injected noise and excluded
 * from wire bookkeeping, so the oracle judges endpoint behaviour, not the
 * injector's. The egress tap fires synchronously inside Fabric::send(),
 * so wire checks observe the endpoint's emission order even when the
 * injector reorders arrivals. Responder-role checks (A1/A2/U3) likewise
 * key on egress-time responder state: a request observed as a duplicate
 * at egress is still a duplicate at delivery, because expectedPsn only
 * advances.
 *
 * Multi-node topologies: watchAll(cluster) attaches every QP of every
 * node, whatever its transport — the one-call attach for >2-node meshes
 * flapping under a chaos::Topology schedule (cluster/topology.hh).
 *
 * Island mode (fabric.sharded()): the monitor shards itself one-to-one
 * with the fabric's islands. Each shard owns the flows of its island's
 * LIDs, its own violation list and its own FNV hash stream, written only
 * by the worker executing that island — no locks on the hot path. The
 * two checks that read a *remote* flow's live QP state (A1 must-answer
 * reads the responder's expectedPsn, W4 ack-coherence reads the
 * requester's nextPsn) are deferred through cross-island CrossChannels
 * keyed by at + lookahead — the packet they shadow cannot take effect at
 * the destination before then — and evaluated, in (time, wire-id) merge
 * order, by the flush preceding the destination window that covers that
 * key (quiesce flushes judge every lingering record). The channel-clock
 * protocol guarantees all records at or below a window's horizon are
 * visible, so the judgement window is a pure function of virtual state:
 * deterministic at any worker count. Deferral is sound:
 * expectedPsn/nextPsn only advance and the judging flush precedes the
 * shadowed packet's delivery, so the judgement matches the arrival-time
 * meaning of both invariants. With one shard (single-queue mode) every
 * path below collapses to the historical code, keeping the traceHash
 * goldens.
 */

#ifndef IBSIM_CHAOS_INVARIANT_MONITOR_HH
#define IBSIM_CHAOS_INVARIANT_MONITOR_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/fabric.hh"
#include "rnic/qp_context.hh"
#include "rnic/rnic.hh"
#include "simcore/cross_channel.hh"
#include "simcore/time.hh"

namespace ibsim {

class Cluster;

namespace swrel {
class SoftReliableChannel;
} // namespace swrel

namespace chaos {

/** One invariant violation (structured, render with str()). */
struct Violation
{
    std::string invariant;  ///< e.g. "fresh-once", "send-exactly-once"
    Time at;
    std::uint16_t lid = 0;
    std::uint32_t qpn = 0;
    std::string detail;

    std::string str() const;
};

/**
 * The oracle. Construct over a fabric, watch() the QPs under test, run
 * the workload, then consult violations() / report(); call finalCheck()
 * first if the workload is expected to have fully drained.
 */
class InvariantMonitor : public ShardedKernel::BarrierAgent
{
  public:
    /**
     * Installs the egress tap on @p fabric. When the fabric is in island
     * mode the monitor shards its state per island and registers as a
     * BarrierAgent on the kernel (construct it after every node exists).
     */
    explicit InvariantMonitor(net::Fabric& fabric);

    ~InvariantMonitor() override;

    InvariantMonitor(const InvariantMonitor&) = delete;
    InvariantMonitor& operator=(const InvariantMonitor&) = delete;

    /**
     * Watch one QP: wire checks for its flow, post/completion accounting
     * via the RNIC and CQ taps (installed once per RNIC / CQ).
     *
     * Late attach is supported: watching a QP that already carried
     * traffic snapshots its nextPsn, and wire/completion events that can
     * only be judged with pre-attach knowledge (fresh transmissions of
     * pre-attach PSNs, completions of pre-attach WRs) are excluded from
     * bookkeeping instead of reported as violations. This lets
     * long-running services be audited mid-run.
     */
    void watch(rnic::Rnic& rnic, rnic::QpContext& qp);

    /**
     * Watch every QP on every node of @p cluster — the one-call attach
     * for cluster-scale runs (e.g. auditing the 4096-QP flood-capacity
     * bench). Safe to call mid-run (late attach per QP, see watch())
     * and to call repeatedly as QPs are added.
     */
    void watchAll(Cluster& cluster);

    /**
     * End-of-run check for drained workloads: every posted send WR on
     * every watched flow completed exactly once (F1). Not called from
     * wire taps because in-flight work is not a violation.
     */
    void finalCheck();

    /** S1: exactly-once delivery accounting of a soft-reliable channel. */
    void checkSwrel(const swrel::SoftReliableChannel& channel);

    /** Total violations detected (including any beyond the stored cap). */
    std::uint64_t violationCount() const;

    bool clean() const { return violationCount() == 0; }

    /**
     * Stored violations (first storedCap per shard per run). Island
     * mode concatenates shards in island order — deterministic for a
     * fixed seed at any worker count.
     */
    const std::vector<Violation>& violations() const;

    /** Multi-line human-readable report (stable across identical runs). */
    std::string report() const;

    /**
     * FNV-1a hash over every packet observed at egress (fields + drop
     * flag, in tap order). Two runs with the same seeds must agree.
     * Island mode folds the per-island hash streams in island order, so
     * the value is independent of the worker count (but is not the
     * single-queue mode's hash — island mode is its own deterministic
     * mode).
     */
    std::uint64_t traceHash() const;

    /** Packets observed at the egress tap. */
    std::uint64_t packetsObserved() const;

    /** BarrierAgent: evaluate deferred cross-island checks for @p island
     * whose key (at + lookahead) is covered by @p horizon; a quiesce
     * flush (now == horizon) judges everything with at <= now. */
    std::uint64_t flushInbound(std::size_t island, Time now,
                               Time horizon) override;

  private:
    struct FlowKey
    {
        std::uint16_t lid;
        std::uint32_t qpn;
        bool operator<(const FlowKey& o) const
        {
            return lid != o.lid ? lid < o.lid : qpn < o.qpn;
        }
    };

    struct FlowState
    {
        rnic::Rnic* rnic = nullptr;
        rnic::QpContext* qp = nullptr;

        /** P1 state: qp->nextPsn observed at the previous post. */
        std::uint32_t lastNextPsn = 0;
        bool anyPostSeen = false;

        /** Reset epoch the wire bookkeeping is anchored to. */
        std::uint16_t lastEpoch = 0;

        /**
         * @{ Late-attach state: nextPsn snapshotted at watch() time, and
         * whether the QP had prior traffic then. PSNs below attachPsn
         * were posted unobserved, so the fresh-wire checks skip them,
         * and completions of WRs never seen posted are ignored.
         */
        std::uint32_t attachPsn = 0;
        bool lateAttach = false;
        /** @} */

        /** W1 state: fresh request PSNs seen on the wire. */
        std::set<std::uint32_t> freshSeen;

        /** @{ C1/C2/F1 accounting. */
        std::uint64_t sendPosted = 0;
        std::uint64_t sendCompleted = 0;
        std::map<std::uint64_t, std::uint64_t> sendPostedByWr;
        std::map<std::uint64_t, std::uint64_t> sendCompletedByWr;
        std::map<std::uint64_t, std::uint64_t> recvPostedByWr;
        std::map<std::uint64_t, std::uint64_t> recvCompletedByWr;
        /** @} */

        /** U3: RECV completions observed on this flow (post-attach). */
        std::uint64_t recvCompleted = 0;

        /**
         * @{ A1 responder-role state. mustAnswer counts delivered
         * duplicate atomics inside the executed range (recorded at
         * request egress, judged against answered at finalCheck());
         * respPayload pins the first response value seen per PSN.
         */
        std::map<std::uint32_t, std::uint64_t> atomicMustAnswer;
        std::map<std::uint32_t, std::uint64_t> atomicAnswered;
        std::map<std::uint32_t, std::vector<std::uint8_t>> atomicRespPayload;
        /** Injector corrupted a replay answer in flight: the per-PSN
         * answered ledger is no longer attributable, A1-lost stands
         * down for this flow (value/serialization checks keep running). */
        bool atomicAnswerAttributionLost = false;
        /** @} */

        /** @{ A2 state: PSN of the last fresh (non-replayed) data-bearing
         * response / fresh atomic response this flow emitted. */
        std::uint32_t lastFreshDataPsn = 0;
        bool anyFreshData = false;
        std::uint32_t lastFreshAtomicPsn = 0;
        bool anyFreshAtomic = false;
        /** @} */
    };

    /**
     * A deferred cross-island check, parked in a (src, dst) channel
     * until the destination's first window whose horizon covers
     * at + lookahead. (at, wireId) orders the drain merge — a strict
     * total order, wire ids are unique.
     */
    struct CrossRecord
    {
        Time at;               ///< egress time on the source island
        std::uint64_t wireId;  ///< merge tiebreak
        std::uint8_t kind;     ///< 0 = A1 must-answer, 1 = W4 coherence
        net::Opcode op;        ///< W4: opcode for the violation text
        std::uint16_t dstLid;
        std::uint32_t dstQpn;
        std::uint32_t psn;
        std::uint16_t epoch;   ///< reset epoch the PSN belongs to
    };

    /**
     * Per-island monitor state: the flows of this island's LIDs, the
     * island's violation list and hash stream, and its outbound deferred
     * checks. Single-queue mode has exactly one shard, making every
     * path byte-identical to the pre-sharding monitor.
     */
    struct Shard
    {
        std::map<FlowKey, FlowState> flows;
        std::vector<Violation> violations;
        std::uint64_t violationCount = 0;
        std::uint64_t hash = 14695981039346656037ull;  // FNV offset basis
        std::uint64_t packetsObserved = 0;
        /** Hashed index over flows, keyed (lid << 32 | qpn): the
         * per-packet lookups. flows stays the ordered home, so
         * finalCheck() and report() iterate in key order. */
        std::unordered_map<std::uint64_t, FlowState*> flowIndex;
        /** Outbound channels keyed by at + lookahead, one per dst
         * island. */
        std::vector<CrossChannel<CrossRecord>> out;
        std::vector<CrossRecord> inbox;  ///< drain merge scratch
    };

    void onEgress(const net::Packet& pkt, bool dropped);
    void onRequestEgress(Shard& shard, const net::Packet& pkt,
                         bool dropped);
    void onResponseEgress(Shard& shard, const net::Packet& pkt,
                          bool dropped);
    void onSendPost(std::uint16_t lid, const rnic::QpContext& qp,
                    const rnic::SendWqe& wqe);
    void onRecvPost(std::uint16_t lid, const rnic::QpContext& qp,
                    const rnic::RecvWqe& wqe);
    void onCompletion(std::uint16_t lid, const verbs::WorkCompletion& wc);

    /** The shard owning @p lid's flows (shard 0 when unsharded). */
    Shard& shardOf(std::uint16_t lid);

    /** The shard of the island currently executing (egress/delivery). */
    Shard& egressShard();

    FlowState* flow(std::uint16_t lid, std::uint32_t qpn);

    void emit(Shard& shard, const std::string& invariant, Time at,
              std::uint16_t lid, std::uint32_t qpn,
              const std::string& detail);

    /**
     * Re-anchor a flow's wire bookkeeping when its QP's resetEpoch moved
     * (recovery restarted the PSN stream). Completion ledgers survive.
     */
    void syncEpoch(FlowState& st);

    /** The A1 must-answer judgement (inline or at a barrier). @p epoch
     * gates it: stale-epoch records never judge a recovered responder. */
    void judgeAtomicMustAnswer(std::uint16_t dst_lid, std::uint32_t dst_qpn,
                               std::uint32_t psn, std::uint16_t epoch);

    /** The W4 ack-coherence judgement (inline or at a barrier). */
    void judgeAckCoherence(Shard& shard, Time at, net::Opcode op,
                           std::uint16_t dst_lid, std::uint32_t dst_qpn,
                           std::uint32_t psn, std::uint16_t epoch);

    static constexpr std::size_t storedCap = 64;

    net::Fabric& fabric_;
    /** One per island; exactly one in single-queue mode. A deque keeps
     * shard addresses stable (not that they move — sized once). */
    std::deque<Shard> shards_;
    std::set<const rnic::Rnic*> tappedRnics_;
    std::set<const verbs::CompletionQueue*> tappedCqs_;
    /** Merged shard views, rebuilt on demand (accessors are cold). */
    mutable std::vector<Violation> mergedViolations_;
};

} // namespace chaos
} // namespace ibsim

#endif // IBSIM_CHAOS_INVARIANT_MONITOR_HH
