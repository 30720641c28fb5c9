#include "rnic/rc_requester.hh"

#include <algorithm>
#include <cassert>

#include "rnic/rnic.hh"
#include "rnic/timeout.hh"
#include "simcore/log.hh"

namespace ibsim {
namespace rnic {

namespace {

/** The IBA encoding where an RNR retry budget of 7 means "infinite". */
constexpr std::uint8_t infiniteRnrRetry = 7;

log::Component traceRc("rc");

} // namespace

RcRequester::RcRequester(Rnic& rnic, QpContext& qp) : rnic_(rnic), qp_(qp)
{
}

void
RcRequester::post(SendWqe wqe)
{
    if (qp_.errorState) {
        verbs::WorkCompletion wc;
        wc.wrId = wqe.wrId;
        wc.status = verbs::WcStatus::WrFlushErr;
        wc.opcode = wqe.op;
        wc.qpn = qp_.qpn;
        wc.completedAt = rnic_.events().now();
        qp_.cq->push(wc);
        return;
    }

    assert(qp_.connected && "QP must be connected before posting");

    if (qp_.config.transport == verbs::Transport::Ud) {
        // Unreliable Datagram: unconnected; each WR carries its own
        // destination. SEND only; fire-and-forget; one MTU max.
        assert(wqe.op == verbs::WrOpcode::Send &&
               "UD supports SEND only");
        assert(wqe.length <= rnic_.profile().mtu &&
               "UD messages are single-datagram");
        net::Packet pkt;
        pkt.op = net::Opcode::Send;
        pkt.psn = qp_.nextPsn;
        qp_.nextPsn = psnNext(qp_.nextPsn);
        pkt.length = wqe.length;
        pkt.payload = rnic_.memory().read(wqe.laddr, wqe.length);
        pkt.srcLid = rnic_.lid();
        pkt.srcQpn = qp_.qpn;
        pkt.dstLid = static_cast<std::uint16_t>(wqe.raddr >> 32);
        pkt.dstQpn = static_cast<std::uint32_t>(wqe.raddr & 0xffffffff);
        ++qp_.stats.requestsSent;
        rnic_.sendRaw(std::move(pkt));

        verbs::WorkCompletion wc;
        wc.wrId = wqe.wrId;
        wc.status = verbs::WcStatus::Success;
        wc.opcode = wqe.op;
        wc.byteLen = wqe.length;
        wc.qpn = qp_.qpn;
        wc.completedAt = rnic_.events().now();
        qp_.cq->push(wc);
        ++qp_.stats.completions;
        return;
    }

    if (qp_.config.transport == verbs::Transport::Uc) {
        // Unreliable Connection: SEND/WRITE only, fire-and-forget. The
        // WR completes as soon as the packet leaves; losses are silent
        // (software must provide reliability -- Koop et al.).
        assert((wqe.op == verbs::WrOpcode::Send ||
                wqe.op == verbs::WrOpcode::Write) &&
               "UC supports SEND and WRITE only");
        wqe.psn = qp_.nextPsn;
        qp_.nextPsn = psnNext(qp_.nextPsn);
        net::Packet pkt;
        pkt.op = wqe.op == verbs::WrOpcode::Send
                     ? net::Opcode::Send
                     : net::Opcode::WriteRequest;
        pkt.psn = wqe.psn;
        pkt.raddr = wqe.raddr;
        pkt.rkey = wqe.rkey;
        pkt.length = wqe.length;
        pkt.payload = rnic_.memory().read(wqe.laddr, wqe.length);
        ++qp_.stats.requestsSent;
        rnic_.sendPacket(std::move(pkt), qp_);

        verbs::WorkCompletion wc;
        wc.wrId = wqe.wrId;
        wc.status = verbs::WcStatus::Success;
        wc.opcode = wqe.op;
        wc.byteLen = wqe.length;
        wc.qpn = qp_.qpn;
        wc.completedAt = rnic_.events().now();
        qp_.cq->push(wc);
        ++qp_.stats.completions;
        return;
    }

    wqe.psn = qp_.nextPsn;
    wqe.segments = std::max<std::uint32_t>(
        1, (wqe.length + rnic_.profile().mtu - 1) / rnic_.profile().mtu);
    qp_.nextPsn = (qp_.nextPsn + wqe.segments) & 0xffffff;
    wqe.postedAt = rnic_.events().now();

    // Damming quirk: requests posted while the send engine is inside the
    // head request's pending period are poisoned -- their exchange will be
    // silently lost until timeout or PSN-sequence-error recovery
    // (DESIGN.md #4). Each pending period poisons at most
    // dammingCapacity requests.
    if (qp_.paused() && qp_.dammingEpisode &&
        rnic_.profile().dammingQuirk && qp_.episodeDamsLeft > 0) {
        wqe.dammed = true;
        --qp_.episodeDamsLeft;
    }

    if (qp_.outstanding.empty())
        rnic_.qpBecameActive();
    qp_.outstanding.push_back(wqe);
    SendWqe& stored = qp_.outstanding.back();

    if (stored.op == verbs::WrOpcode::Send ||
        stored.op == verbs::WrOpcode::Write) {
        // Sender-side ODP: the RNIC must read the payload from local
        // memory, so unmapped source pages fault before transmission.
        verbs::MemoryRegion* mr = rnic_.findMr(stored.lkey);
        assert(mr && "posted WR references an unknown lkey");
        const std::uint64_t unmapped =
            mr->table().firstUnmapped(stored.laddr, stored.length);
        if (unmapped != 0) {
            raiseLocalFaults(stored);
            return;  // transmission deferred to fault resolution
        }
    }

    (void)stored;
    if (!qp_.paused())
        pump();
}

void
RcRequester::raiseLocalFaults(SendWqe& wqe)
{
    verbs::MemoryRegion* mr = rnic_.findMr(wqe.lkey);
    assert(mr && "blocked WQE references an unknown lkey");
    wqe.blockedOnLocalFault = true;
    const std::uint32_t psn = wqe.psn;
    const std::uint32_t counter = faultCounters_.acquire();
    const std::uint64_t first = mem::pageOf(wqe.laddr);
    const std::uint64_t last = mem::pageOf(wqe.laddr + wqe.length - 1);
    for (std::uint64_t p = first; p <= last; ++p) {
        const std::uint64_t va = p * mem::pageSize;
        if (mr->table().mappedPage(va))
            continue;
        ++faultCounters_.at(counter);
        rnic_.driver().raiseFault(
            mr->table(), va, [this, psn, counter] {
                if (--faultCounters_.at(counter) > 0)
                    return;
                faultCounters_.release(counter);
                onLocalFaultsResolved(psn);
            });
    }
    if (faultCounters_.at(counter) == 0) {
        // Every page mapped between the caller's check and the raise
        // (a huge-page fault on the same table can do this): nothing to
        // wait for.
        faultCounters_.release(counter);
        onLocalFaultsResolved(psn);
    }
}

void
RcRequester::onLocalFaultsResolved(std::uint32_t psn)
{
    // All source pages resolved: release the WQE and send it unless the
    // engine is paused (then the next retransmission burst carries it).
    for (auto& w : qp_.outstanding) {
        if (w.psn != psn)
            continue;
        if (rnic_.profile().faultTiming.pageStateMachine) {
            // Honor the notifier quiesce window: an invalidate_start
            // that flushed source pages while the batch fanned in means
            // the translations are gone — re-fault instead of reading
            // through stale entries.
            verbs::MemoryRegion* mr = rnic_.findMr(w.lkey);
            if (mr &&
                mr->table().firstUnmapped(w.laddr, w.length) != 0) {
                raiseLocalFaults(w);
                return;
            }
        }
        w.blockedOnLocalFault = false;
        if (qp_.state == QpState::Rts && !qp_.paused() &&
            w.transmissions == 0) {
            transmit(w);
        }
        break;
    }
}

void
RcRequester::pump()
{
    // Only an RTS queue transmits: Error flushes at post time, and a QP
    // mid-recovery (Reset/Init/RTR) queues posts until the CM handshake
    // lands and resume() restarts the engine.
    if (qp_.state != QpState::Rts || qp_.paused())
        return;
    while (!qp_.outstanding.empty()) {
        const std::uint32_t head_psn = qp_.outstanding.front().psn;
        const std::int32_t inflight = psnDiff(qp_.sendCursor, head_psn);
        if (inflight < 0) {
            // Cursor fell behind the head (everything up to the head
            // completed); snap it forward.
            qp_.sendCursor = head_psn;
            continue;
        }
        if (static_cast<std::uint32_t>(inflight) >=
            qp_.config.maxInflight) {
            return;  // pipelining window full
        }
        // Find the WQE whose PSN range starts at the cursor (WQEs may
        // span several PSNs under MTU segmentation). PSNs rise strictly
        // along the queue, so at most one WQE matches: the hint, when it
        // still points at it, is that WQE; otherwise (a rewind moved the
        // cursor back) scan from the head.
        std::size_t at = cursorHint_;
        if (at >= qp_.outstanding.size() ||
            qp_.outstanding[at].psn != qp_.sendCursor) {
            at = 0;
            while (at < qp_.outstanding.size() &&
                   psnDiff(qp_.outstanding[at].psn, qp_.sendCursor) < 0)
                ++at;
            if (at == qp_.outstanding.size() ||
                qp_.outstanding[at].psn != qp_.sendCursor)
                return;  // nothing more to send
        }
        SendWqe* next = &qp_.outstanding[at];
        const bool read_type = next->op == verbs::WrOpcode::Read ||
                               next->op == verbs::WrOpcode::FetchAdd ||
                               next->op == verbs::WrOpcode::CompSwap;
        if (read_type && qp_.config.maxRdAtomic > 0) {
            // In-order SQ: a READ/ATOMIC beyond the responder's
            // advertised depth stalls the queue until one completes.
            // The WQEs ahead of the cursor are exactly those before it.
            std::uint32_t outstanding_reads = 0;
            for (std::size_t i = 0; i < at; ++i) {
                const verbs::WrOpcode op = qp_.outstanding[i].op;
                if (op == verbs::WrOpcode::Read ||
                    op == verbs::WrOpcode::FetchAdd ||
                    op == verbs::WrOpcode::CompSwap) {
                    ++outstanding_reads;
                }
            }
            if (outstanding_reads >= qp_.config.maxRdAtomic)
                return;
        }
        qp_.sendCursor = (next->psn + next->segments) & 0xffffff;
        cursorHint_ = at + 1;
        if (next->blockedOnLocalFault)
            continue;  // released by its fault-resolution callback
        transmit(*next);
    }
}

void
RcRequester::rewind(std::uint32_t psn, bool clear_dammed)
{
    if (qp_.outstanding.empty())
        return;
    const std::uint32_t head_psn = qp_.outstanding.front().psn;
    const std::uint32_t from =
        psnDiff(psn, head_psn) > 0 ? psn : head_psn;
    if (clear_dammed) {
        for (auto& wqe : qp_.outstanding) {
            if (psnDiff(wqe.psn, from) >= 0)
                wqe.dammed = false;
        }
    }
    if (psnDiff(qp_.sendCursor, from) > 0)
        qp_.sendCursor = from;
}

void
RcRequester::transmit(SendWqe& wqe)
{
    const bool retransmission = wqe.transmissions > 0;
    if (!retransmission)
        wqe.firstSentAt = rnic_.events().now();

    // A retransmitted READ restarts its response stream from scratch.
    if (retransmission)
        wqe.segmentsReceived = 0;

    for (std::uint32_t seg = 0; seg < wqe.segments; ++seg) {
        net::Packet pkt;
        switch (wqe.op) {
          case verbs::WrOpcode::Read:
            pkt.op = net::Opcode::ReadRequest;
            break;
          case verbs::WrOpcode::Write:
            pkt.op = net::Opcode::WriteRequest;
            break;
          case verbs::WrOpcode::Send:
            pkt.op = net::Opcode::Send;
            break;
          case verbs::WrOpcode::FetchAdd:
          case verbs::WrOpcode::CompSwap:
            pkt.op = net::Opcode::AtomicRequest;
            pkt.atomicIsCompSwap = wqe.op == verbs::WrOpcode::CompSwap;
            pkt.atomicOperand = wqe.atomicOperand;
            pkt.atomicCompare = wqe.atomicCompare;
            break;
          case verbs::WrOpcode::Recv:
            assert(false && "RECV is not a send-side opcode");
            return;
        }
        pkt.psn = (wqe.psn + seg) & 0xffffff;
        pkt.raddr = wqe.raddr;
        pkt.rkey = wqe.rkey;
        pkt.length = wqe.length;
        pkt.segIndex = seg;
        pkt.segCount = wqe.segments;
        pkt.dammed = wqe.dammed;
        pkt.retransmission = retransmission;

        if (wqe.op == verbs::WrOpcode::Send ||
            wqe.op == verbs::WrOpcode::Write) {
            // This segment's chunk of the payload.
            const std::uint32_t mtu = rnic_.profile().mtu;
            const std::uint32_t off = seg * mtu;
            const std::uint32_t chunk =
                std::min(mtu, wqe.length - off);
            pkt.payload = rnic_.memory().read(wqe.laddr + off, chunk);
        } else if (wqe.op == verbs::WrOpcode::Read) {
            // One request reserves the whole PSN range; only the first
            // packet exists on the wire.
            pkt.psn = wqe.psn;
            pkt.segIndex = 0;
            seg = wqe.segments;  // single emission
        }

        ++qp_.stats.requestsSent;
        if (retransmission)
            ++qp_.stats.retransmissions;
        rnic_.sendPacket(std::move(pkt), qp_);
    }
    ++wqe.transmissions;

    if (!qp_.timerArmed && !qp_.inRnrWait)
        armTimer();
}

void
RcRequester::armTimer()
{
    const Time detection = detectionTime(qp_.config.cack, rnic_.profile());
    if (detection == Time::max())
        return;
    // Timeout detection lengthens under concurrent QP load (Sec. VI-C).
    const double load =
        1.0 + rnic_.profile().timeoutLoadFactor *
                  static_cast<double>(
                      rnic_.activeQpCount() > 0 ? rnic_.activeQpCount() - 1
                                                : 0);
    disarmTimer();
    qp_.retransmitTimer = rnic_.events().scheduleAfter(
        detection * load, [this] { timeoutFired(); });
    qp_.timerArmed = true;
}

void
RcRequester::disarmTimer()
{
    if (qp_.timerArmed) {
        rnic_.events().cancel(qp_.retransmitTimer);
        qp_.timerArmed = false;
    }
}

void
RcRequester::timeoutFired()
{
    qp_.timerArmed = false;
    if (qp_.errorState || qp_.outstanding.empty())
        return;
    if (qp_.inRnrWait)
        return;  // RNR wait owns the QP; its own timer resumes things

    ++qp_.retryCount;
    ++qp_.stats.timeouts;
    IBSIM_TRACE(traceRc, rnic_.events().now(),
                "qpn=" + std::to_string(qp_.qpn) +
                    " transport timeout #" +
                    std::to_string(qp_.retryCount));

    if (qp_.retryCount > qp_.config.cretry) {
        flushAll(verbs::WcStatus::RetryExcErr);
        return;
    }

    // Timeout-driven recovery clears the dammed mark: the paper's Fig. 5
    // shows the second READ finally completing after the ~500 ms timeout.
    qp_.dammingEpisode = false;
    if (qp_.clientRexmitActive) {
        rnic_.events().cancel(qp_.clientRexmitTimer);
        qp_.clientRexmitActive = false;
    }
    rewind(qp_.outstanding.front().psn, /*clear_dammed=*/true);
    pump();
    armTimer();
}

void
RcRequester::enterRnrWait(Time responder_min_delay)
{
    if (qp_.inRnrWait)
        return;

    ++qp_.rnrCount;
    if (qp_.config.rnrRetry != infiniteRnrRetry &&
        qp_.rnrCount > qp_.config.rnrRetry) {
        flushAll(verbs::WcStatus::RnrRetryExcErr);
        return;
    }

    // The requester's actual wait is a device-specific multiple of the
    // advertised minimum (measured ~3.5x, Fig. 1).
    const Time wait = rnic_.rng().jitter(
        responder_min_delay * rnic_.profile().rnrWaitMultiplier, 0.08);
    qp_.inRnrWait = true;
    disarmTimer();

    // Each stuck request dams at most once: its first pending period.
    SendWqe& head = qp_.outstanding.front();
    if (!head.windowOpened) {
        head.windowOpened = true;
        qp_.dammingEpisode = true;
        qp_.episodeDamsLeft = rnic_.profile().dammingCapacity;
    }

    qp_.rnrTimer =
        rnic_.events().scheduleAfter(wait, [this] { rnrWaitFired(); });

    IBSIM_TRACE(traceRc, rnic_.events().now(),
                "qpn=" + std::to_string(qp_.qpn) + " RNR wait " +
                    wait.str());
}

void
RcRequester::rnrWaitFired()
{
    qp_.inRnrWait = false;
    qp_.dammingEpisode = false;
    if (qp_.errorState || qp_.outstanding.empty())
        return;
    // RNR-driven retransmission does NOT clear the dammed mark: Fig. 5
    // shows the retransmitted second READ still losing its exchange.
    rewind(qp_.outstanding.front().psn, /*clear_dammed=*/false);
    pump();
    armTimer();
}

void
RcRequester::scheduleClientRexmit()
{
    if (qp_.clientRexmitActive)
        return;
    qp_.clientRexmitActive = true;
    // Back off under flood load (Sec. VII-B: retransmissions stretch to
    // tens of milliseconds when many QPs are stuck).
    const double load = std::min(
        80.0, 1.0 + rnic_.profile().rexmitLoadFactor *
                        static_cast<double>(rnic_.board().staleCount()));
    const Time interval = rnic_.rng().jitter(
        rnic_.profile().clientRexmitInterval * load, 0.05);
    qp_.clientRexmitTimer = rnic_.events().scheduleAfter(
        interval, [this] { clientRexmitFired(); });
}

void
RcRequester::clientRexmitFired()
{
    qp_.clientRexmitActive = false;
    qp_.dammingEpisode = false;
    if (qp_.errorState || qp_.outstanding.empty() || qp_.inRnrWait)
        return;
    // Blind retransmission: the client resends regardless of whether the
    // local fault resolved (Fig. 1, client-side ODP). The responder's
    // replies re-trigger this loop through the discard path until a
    // response is finally usable.
    rewind(qp_.outstanding.front().psn, /*clear_dammed=*/false);
    pump();
}

bool
RcRequester::readDestinationReady(const SendWqe& wqe, bool register_faults)
{
    verbs::MemoryRegion* mr = rnic_.findMr(wqe.lkey);
    assert(mr && "READ WQE references an unknown lkey");
    if (!mr->odp())
        return true;

    bool ready = true;
    bool fresh_fault = false;
    const std::uint64_t first = mem::pageOf(wqe.laddr);
    const std::uint64_t last = mem::pageOf(wqe.laddr + wqe.length - 1);
    for (std::uint64_t p = first; p <= last; ++p) {
        const std::uint64_t va = p * mem::pageSize;
        if (!mr->table().mappedPage(va)) {
            ready = false;
            if (register_faults) {
                if (!rnic_.driver().faultInFlight(mr->table(), va))
                    fresh_fault = true;
                rnic_.driver().raiseFault(mr->table(), va);
                rnic_.board().registerWaiter(&mr->table(), p, qp_.qpn);
            }
        } else if (!rnic_.board().fresh(&mr->table(), p, qp_.qpn)) {
            // Page mapped, but this QP's status view is stale (the flood
            // quirk): the response is still unusable.
            ready = false;
        }
    }

    if (fresh_fault && !qp_.outstanding.empty()) {
        SendWqe& head = qp_.outstanding.front();
        // The first fault discard of a head request opens its damming
        // episode (client-side damming, Fig. 6b): at most one per WQE.
        if (head.psn == wqe.psn && !head.windowOpened) {
            head.windowOpened = true;
            qp_.dammingEpisode = true;
            qp_.episodeDamsLeft = rnic_.profile().dammingCapacity;
        }
    }
    return ready;
}

void
RcRequester::onReadResponse(const net::Packet& pkt)
{
    if (qp_.errorState || qp_.outstanding.empty())
        return;

    if (qp_.inRnrWait) {
        // Responses arriving during an RNR wait are discarded (Sec. IV-A).
        ++qp_.stats.responsesDiscardedRnrWait;
        return;
    }

    SendWqe& head = qp_.outstanding.front();
    const bool data_bearing = head.op == verbs::WrOpcode::Read ||
                              head.op == verbs::WrOpcode::FetchAdd ||
                              head.op == verbs::WrOpcode::CompSwap;
    const std::uint32_t expected =
        (head.psn + head.segmentsReceived) & 0xffffff;
    if (!data_bearing || pkt.psn != expected)
        return;  // stale or out-of-order response: ignored (go-back-N)

    if (!readDestinationReady(head, /*register_faults=*/true)) {
        verbs::MemoryRegion* mr = rnic_.findMr(head.lkey);
        const bool unmapped =
            mr->table().firstUnmapped(head.laddr, head.length) != 0;
        if (unmapped)
            ++qp_.stats.responsesDiscardedFault;
        else
            ++qp_.stats.responsesDiscardedStale;
        scheduleClientRexmit();
        return;
    }

    // Destination usable: land this segment; complete on the last one.
    const std::uint64_t off =
        static_cast<std::uint64_t>(head.segmentsReceived) *
        rnic_.profile().mtu;
    rnic_.memory().write(head.laddr + off, pkt.payload);
    if (++head.segmentsReceived < head.segments) {
        // Partial progress: each valid response packet restarts the
        // retry budget and the detection timer (IBA semantics).
        qp_.retryCount = 0;
        armTimer();
        return;
    }
    completeHead();
}

void
RcRequester::onAck(const net::Packet& pkt)
{
    if (qp_.errorState)
        return;
    if (qp_.inRnrWait) {
        ++qp_.stats.responsesDiscardedRnrWait;
        return;
    }
    // Complete contiguous head WRITE/SEND WQEs covered by this ACK. A READ
    // at the head blocks implicit completion: it needs its data.
    while (!qp_.outstanding.empty()) {
        SendWqe& head = qp_.outstanding.front();
        if (head.op == verbs::WrOpcode::Read)
            break;
        if (psnDiff(pkt.psn, head.lastPsn()) < 0)
            break;
        completeHead();
    }
}

void
RcRequester::onNak(const net::Packet& pkt)
{
    if (qp_.errorState || qp_.outstanding.empty())
        return;

    switch (pkt.nak) {
      case net::NakCode::PsnSequenceError:
        ++qp_.stats.seqNaksReceived;
        // Immediate go-back-N from the responder's expected PSN; this
        // clears the dammed mark and ends any pending period early
        // (Fig. 8: recovery without timeout).
        if (qp_.inRnrWait) {
            rnic_.events().cancel(qp_.rnrTimer);
            qp_.inRnrWait = false;
        }
        qp_.dammingEpisode = false;
        rewind(pkt.psn, /*clear_dammed=*/true);
        pump();
        armTimer();
        break;
      case net::NakCode::RemoteAccessError:
        flushAll(verbs::WcStatus::RemAccessErr);
        break;
      case net::NakCode::None:
        break;
    }
}

void
RcRequester::onRnrNak(const net::Packet& pkt)
{
    if (qp_.errorState || qp_.outstanding.empty())
        return;
    ++qp_.stats.rnrNaksReceived;
    enterRnrWait(pkt.rnrDelay);
}

void
RcRequester::completeHead()
{
    SendWqe head = qp_.outstanding.front();
    qp_.outstanding.pop_front();
    if (cursorHint_ > 0)
        --cursorHint_;
    if (qp_.outstanding.empty())
        rnic_.qpBecameIdle();

    verbs::WorkCompletion wc;
    wc.wrId = head.wrId;
    wc.status = verbs::WcStatus::Success;
    wc.opcode = head.op;
    wc.byteLen = head.length;
    wc.qpn = qp_.qpn;
    wc.completedAt = rnic_.events().now();
    qp_.cq->push(wc);
    ++qp_.stats.completions;

    progressMade();
}

void
RcRequester::progressMade()
{
    qp_.retryCount = 0;
    qp_.rnrCount = 0;
    if (qp_.outstanding.empty()) {
        disarmTimer();
        if (qp_.clientRexmitActive) {
            rnic_.events().cancel(qp_.clientRexmitTimer);
            qp_.clientRexmitActive = false;
        }
        qp_.dammingEpisode = false;
    } else {
        armTimer();
        pump();  // slide the pipelining window
    }
}

void
RcRequester::flushAll(verbs::WcStatus status)
{
    disarmTimer();
    if (qp_.inRnrWait) {
        rnic_.events().cancel(qp_.rnrTimer);
        qp_.inRnrWait = false;
    }
    if (qp_.clientRexmitActive) {
        rnic_.events().cancel(qp_.clientRexmitTimer);
        qp_.clientRexmitActive = false;
    }
    qp_.dammingEpisode = false;

    if (!qp_.outstanding.empty())
        rnic_.qpBecameIdle();
    bool first = true;
    while (!qp_.outstanding.empty()) {
        SendWqe head = qp_.outstanding.front();
        qp_.outstanding.pop_front();
        if (cursorHint_ > 0)
            --cursorHint_;

        // Drop any flood-board waiters this WQE registered.
        if (head.op == verbs::WrOpcode::Read) {
            if (verbs::MemoryRegion* mr = rnic_.findMr(head.lkey)) {
                const std::uint64_t firstPage = mem::pageOf(head.laddr);
                const std::uint64_t lastPage =
                    mem::pageOf(head.laddr + head.length - 1);
                for (std::uint64_t p = firstPage; p <= lastPage; ++p)
                    rnic_.board().unregisterWaiter(&mr->table(), p,
                                                   qp_.qpn);
            }
        }

        verbs::WorkCompletion wc;
        wc.wrId = head.wrId;
        // The failing WR carries the real error; the rest flush.
        wc.status = first ? status : verbs::WcStatus::WrFlushErr;
        wc.opcode = head.op;
        wc.byteLen = head.length;
        wc.qpn = qp_.qpn;
        wc.completedAt = rnic_.events().now();
        qp_.cq->push(wc);
        first = false;
    }

    qp_.errorState = true;
    qp_.state = QpState::Error;
    rnic_.noteQpError(qp_);
    IBSIM_TRACE(traceRc, rnic_.events().now(),
                "qpn=" + std::to_string(qp_.qpn) + " moved to error: " +
                    verbs::wcStatusName(status));
}

void
RcRequester::resume()
{
    pump();
}

} // namespace rnic
} // namespace ibsim
