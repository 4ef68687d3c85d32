//! The TCP sender state machine.
//!
//! [`TcpSender`] sends a byte stream split into application *transfers*
//! (video chunks, HTTP responses). It implements:
//!
//! - sliding-window transmission limited by the congestion window,
//! - NewReno loss recovery: duplicate-ACK fast retransmit, partial-ACK
//!   retransmission during recovery, RTO with exponential backoff,
//! - pacing via [`Pacer`](crate::Pacer) — the application-informed pacing
//!   mechanism: each transfer carries an optional pace rate that
//!   upper-bounds the release rate of its bytes (§3.2 of the paper),
//! - slow-start restart after idle periods,
//! - telemetry: retransmitted bytes, total bytes, per-packet RTT samples
//!   recorded in a t-digest, per-transfer timings (for chunk throughput).
//!
//! Pacing, RTT sampling, the RTO, idle restart and the telemetry live in
//! the [`SenderCore`] it shares with the QUIC sender; this module keeps the
//! byte sequence space and NewReno recovery.
//!
//! The sender is not itself a [`netsim::Endpoint`]; host endpoints own one
//! or more senders and forward ACKs/timers to them (see
//! [`crate::endpoint::SenderEndpoint`] for a ready-made wrapper).

use crate::cc::CcAlgorithm;
use crate::mux::Protocol;
use crate::sender_core::SenderCore;
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimTime, HEADER_BYTES, MSS_BYTES};
use std::collections::VecDeque;

/// Configuration for a transport sender (TCP or QUIC — the name predates
/// the QUIC-style transport; every field applies to both).
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Wire protocol: TCP byte stream or QUIC-style streams.
    pub transport: Protocol,
    /// Congestion-control algorithm.
    pub cc: CcAlgorithm,
    /// Maximum line-rate burst in packets (applies even when unpaced; the
    /// production default in the paper is 40).
    pub max_burst_packets: u32,
    /// Restart from the initial window after an idle period longer than one
    /// RTO (slow-start restart), as production stacks do.
    pub idle_restart: bool,
    /// Maximum segment lifetime of the flow's send buffer in bytes — how
    /// far ahead of `snd_una` the application may queue. Effectively the
    /// socket send-buffer size.
    pub send_buffer: u64,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            transport: Protocol::Tcp,
            cc: CcAlgorithm::Reno,
            max_burst_packets: 40,
            idle_restart: true,
            send_buffer: 64 * 1024 * 1024,
        }
    }
}

/// A queued or in-progress application transfer (one chunk / response).
#[derive(Debug, Clone)]
struct Transfer {
    id: u64,
    /// Byte range [start, end) within the connection's stream.
    start: u64,
    end: u64,
    /// Pace-rate limit for this transfer (application-informed pacing).
    pace: Option<Rate>,
    /// When the transfer was queued.
    queued_at: SimTime,
    /// When its first byte entered the network.
    started_at: Option<SimTime>,
}

/// A completed transfer report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompletedTransfer {
    /// Application-assigned transfer id.
    pub id: u64,
    /// Payload bytes transferred.
    pub bytes: u64,
    /// When the transfer was queued by the application.
    pub queued_at: SimTime,
    /// When the first byte was sent.
    pub started_at: SimTime,
    /// When the last byte was cumulatively acknowledged.
    pub completed_at: SimTime,
}

impl CompletedTransfer {
    /// Goodput of this transfer in bits/sec, measured from first send to
    /// completion — the paper's "chunk throughput".
    pub fn throughput(&self) -> Rate {
        let dur = self.completed_at.saturating_since(self.started_at);
        if dur.is_zero() {
            return Rate::ZERO;
        }
        Rate::from_bps(self.bytes as f64 * 8.0 / dur.as_secs_f64())
    }
}

/// Telemetry counters exposed by the sender.
#[derive(Debug, Clone, Default)]
pub struct SenderStats {
    /// Payload bytes sent, including retransmissions.
    pub bytes_sent: u64,
    /// Payload bytes retransmitted.
    pub retx_bytes: u64,
    /// Data packets sent, including retransmissions.
    pub packets_sent: u64,
    /// Data packets retransmitted.
    pub retx_packets: u64,
    /// Fast-retransmit loss events.
    pub loss_events: u64,
    /// Retransmission timeouts.
    pub rtos: u64,
}

impl SenderStats {
    /// Fraction of sent bytes that were retransmissions — the paper's
    /// "% retransmits" congestion metric (§5.1).
    pub fn retransmit_fraction(&self) -> f64 {
        if self.bytes_sent == 0 {
            0.0
        } else {
            self.retx_bytes as f64 / self.bytes_sent as f64
        }
    }
}

/// NewReno TCP sender with application-informed pacing.
#[derive(Debug)]
pub struct TcpSender {
    pub(crate) core: SenderCore,

    /// Lowest unacknowledged byte.
    snd_una: u64,
    /// Next new byte to send.
    snd_nxt: u64,
    /// Application bytes available to send (stream length so far).
    stream_end: u64,

    /// Duplicate-ACK counter.
    dup_acks: u32,
    /// If in fast recovery, recovery ends when `snd_una >= recover`.
    recover: Option<u64>,
    /// Next byte to (re)send inside the recovery hole, if any.
    retx_next: Option<u64>,
    /// Send epoch: bumped on RTO so stale ACK info can be recognized.
    round: u64,

    transfers: VecDeque<Transfer>,
    next_transfer_id: u64,
}

impl TcpSender {
    /// Create a sender for a flow from `src` to `dst`.
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        TcpSender {
            core: SenderCore::new(src, dst, flow, cfg),
            snd_una: 0,
            snd_nxt: 0,
            stream_end: 0,
            dup_acks: 0,
            recover: None,
            retx_next: None,
            round: 0,
            transfers: VecDeque::new(),
            next_transfer_id: 0,
        }
    }

    /// The state and telemetry shared with the QUIC sender.
    pub fn core(&self) -> &SenderCore {
        &self.core
    }

    /// Queue an application transfer of `bytes`, paced at `pace` (or
    /// unpaced if `None`). Returns the transfer id.
    ///
    /// The pace rate applies from the moment this transfer's first byte is
    /// released; queuing a transfer with a different rate changes the pacer
    /// when the stream reaches it.
    pub fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        assert!(bytes > 0, "empty transfer");
        debug_assert!(
            self.stream_end - self.snd_una + bytes <= self.core.cfg.send_buffer,
            "send buffer overflow"
        );
        let id = self.next_transfer_id;
        self.next_transfer_id += 1;
        let start = self.stream_end;
        self.stream_end += bytes;
        self.transfers.push_back(Transfer {
            id,
            start,
            end: self.stream_end,
            pace,
            queued_at: now,
            started_at: None,
        });
        id
    }

    /// True when every queued byte has been acknowledged.
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.stream_end
    }

    /// Bytes in flight (sent but unacknowledged).
    pub fn bytes_in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// When the sender next needs a timer callback ([`TcpSender::on_tick`]):
    /// the earlier of the RTO deadline and the pacer release time (when the
    /// window has room but pacing blocks). `None` if nothing is pending.
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        let next = self.can_send_more().then(|| self.next_segment_len());
        self.core.next_wakeup(now, next)
    }

    /// Handle an arriving cumulative ACK. Newly permitted segments are
    /// pushed into `out`.
    pub fn on_ack(
        &mut self,
        now: SimTime,
        cum_ack: u64,
        echo_ts: SimTime,
        _round: u64,
        out: &mut Vec<Packet>,
    ) {
        if cum_ack > self.snd_una {
            // New data acknowledged.
            let newly_acked = cum_ack - self.snd_una;
            self.snd_una = cum_ack;
            // After an RTO's go-back-N reset, a late ACK for data sent
            // before the reset can move snd_una past snd_nxt; restore the
            // invariant snd_nxt >= snd_una or in-flight accounting
            // underflows and the connection wedges.
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.dup_acks = 0;
            let rtt = self.core.on_progress(now, echo_ts);

            let mut in_recovery = self.recover.is_some();
            if let Some(recover) = self.recover {
                if cum_ack >= recover {
                    // Full ACK: leave recovery.
                    self.recover = None;
                    self.retx_next = None;
                    in_recovery = false;
                } else {
                    // Partial ACK: retransmit the next hole (NewReno).
                    self.retx_next = Some(cum_ack);
                }
            }
            self.core.cc.on_ack(now, newly_acked, rtt, in_recovery);
            self.core.cc.on_inflight(now, self.bytes_in_flight());

            self.complete_transfers(now);

            if self.snd_una == self.snd_nxt {
                self.core.clear_timeout();
            } else {
                self.core.arm_timeout(now);
            }
        } else if cum_ack == self.snd_una && self.snd_nxt > self.snd_una {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recover.is_none() {
                // Fast retransmit: enter recovery.
                self.core.on_loss_event(now);
                self.recover = Some(self.snd_nxt);
                self.retx_next = Some(self.snd_una);
                self.core.arm_timeout(now);
            }
        }
        self.pump(now, out);
    }

    /// Timer callback: handles RTO expiry and pacing-released transmission.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        if self.core.fire_timeout(now, self.snd_nxt > self.snd_una) {
            self.round += 1;
            self.dup_acks = 0;
            self.recover = None;
            // Go-back-N from the hole.
            self.snd_nxt = self.snd_una;
            self.retx_next = None;
        }
        self.pump(now, out);
    }

    /// Kick transmission without an ACK or timer (e.g. right after the
    /// application queues a transfer).
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let quiet = self.snd_una == self.snd_nxt && self.snd_nxt < self.stream_end;
        self.core.idle_restart(now, quiet);

        loop {
            // Priority 1: recovery retransmissions.
            if let (Some(next), Some(recover)) = (self.retx_next, self.recover) {
                if next < recover {
                    let len = MSS_BYTES.min(recover - next);
                    if !self.core.pacer.can_send(now, len + HEADER_BYTES) {
                        break;
                    }
                    self.emit_segment(now, next, len, true, out);
                    self.retx_next = None; // one hole per partial ACK / entry
                    continue;
                }
                self.retx_next = None;
            }

            // Priority 2: new data within cwnd.
            if !self.can_send_more() {
                // Out of data (not window): the path is app-limited, so
                // delivery-rate samples must not be taken at face value.
                if self.snd_nxt == self.stream_end && self.bytes_in_flight() < self.core.cwnd() {
                    self.core.cc.on_app_limited(now);
                }
                break;
            }
            let len = self.next_segment_len();
            let nxt = self.snd_nxt;
            let transfers = &self.transfers;
            let app = || {
                let active = transfers.iter().find(|t| t.start <= nxt && nxt < t.end);
                active.and_then(|t| t.pace)
            };
            if !self.core.pace(now, len, app) {
                break;
            }
            self.emit_segment(now, nxt, len, false, out);
            self.snd_nxt += len;
            self.core.ensure_timeout(now);
        }
        self.check_invariants();
    }

    /// Sender sanity (validate feature): sequence-space ordering, in-flight
    /// bounded by the send buffer, cwnd never below one MSS, and the core's
    /// pace bounds. Checked
    /// at the end of [`pump`](Self::pump), which every ACK/timer/app path
    /// funnels through.
    #[cfg(feature = "validate")]
    fn check_invariants(&self) {
        netsim::invariant!(
            "tcp-sender-sanity",
            self.snd_una <= self.snd_nxt && self.snd_nxt <= self.stream_end,
            "sequence space out of order: una {} nxt {} end {}",
            self.snd_una,
            self.snd_nxt,
            self.stream_end
        );
        netsim::invariant!(
            "tcp-sender-sanity",
            self.bytes_in_flight() <= self.core.cfg.send_buffer,
            "inflight {} exceeds send buffer {}",
            self.bytes_in_flight(),
            self.core.cfg.send_buffer
        );
        netsim::invariant!(
            "tcp-sender-sanity",
            self.core.cwnd() >= MSS_BYTES,
            "cwnd {} below one MSS",
            self.core.cwnd()
        );
        self.core.check_pace();
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_invariants(&self) {}

    /// Can a new (non-retransmitted) segment be sent under cwnd and data
    /// availability?
    fn can_send_more(&self) -> bool {
        self.snd_nxt < self.stream_end && self.bytes_in_flight() < self.core.cwnd()
    }

    fn next_segment_len(&self) -> u64 {
        let remaining_data = self.stream_end - self.snd_nxt;
        let window_room = self.core.cwnd().saturating_sub(self.bytes_in_flight());
        // Always allow at least one full segment of window room once we are
        // permitted to send at all; sub-MSS nibbles would stall recovery.
        let cap = window_room.max(MSS_BYTES);
        MSS_BYTES.min(remaining_data).min(cap)
    }

    fn emit_segment(
        &mut self,
        now: SimTime,
        offset: u64,
        len: u64,
        retx: bool,
        out: &mut Vec<Packet>,
    ) {
        for t in self.transfers.iter_mut() {
            if t.start <= offset && offset < t.end && t.started_at.is_none() {
                t.started_at = Some(now);
            }
        }
        let payload = Payload::Data {
            offset,
            len: len as u32,
            retx,
            round: self.round,
        };
        self.core.send(now, payload, len, retx, out);
    }

    fn complete_transfers(&mut self, now: SimTime) {
        while self
            .transfers
            .front()
            .is_some_and(|t| self.snd_una >= t.end)
        {
            let t = self.transfers.pop_front().expect("checked front");
            let bytes = t.end - t.start;
            self.core
                .complete(now, t.id, bytes, t.queued_at, t.started_at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{SimDuration, HEADER_BYTES};

    fn sender() -> TcpSender {
        TcpSender::new(NodeId(0), NodeId(1), FlowId(1), TcpConfig::default())
    }

    fn data_range(pkt: &Packet) -> (u64, u64, bool) {
        match pkt.payload {
            Payload::Data {
                offset, len, retx, ..
            } => (offset, offset + len as u64, retx),
            _ => panic!("not a data packet"),
        }
    }

    /// A non-physical pace must trip `pacing-rate-bounds` (and nothing
    /// else) the first time the send path runs with it. `Rate::ZERO` gets
    /// past `Rate`'s constructor (it is a legitimate rate elsewhere) but a
    /// zero pace can never release a byte.
    #[cfg(feature = "validate")]
    #[test]
    fn zero_pace_trips_pacing_invariant() {
        let err = std::panic::catch_unwind(|| {
            let mut s = sender();
            let mut out = Vec::new();
            s.start_transfer(SimTime::ZERO, 100_000, Some(Rate::ZERO));
            s.pump(SimTime::ZERO, &mut out);
        })
        .expect_err("invalid pace must trip the invariant");
        let msg = netsim::invariants::panic_message(&*err);
        assert!(
            msg.starts_with(&netsim::invariants::violation_tag("pacing-rate-bounds")),
            "wrong invariant: {msg}"
        );
    }

    #[test]
    fn initial_window_burst() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        // IW = 10 segments.
        assert_eq!(out.len(), 10);
        assert_eq!(s.bytes_in_flight(), 10 * MSS_BYTES);
        let (o, e, retx) = data_range(&out[0]);
        assert_eq!((o, e, retx), (0, MSS_BYTES, false));
    }

    #[test]
    fn ack_clocking_grows_window() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 10_000_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let first_burst = out.len();
        out.clear();
        // ACK everything: slow start doubles cwnd; roughly 2x packets flow.
        let t1 = SimTime::from_millis(10);
        s.on_ack(t1, s.bytes_in_flight(), SimTime::ZERO, 0, &mut out);
        assert!(
            out.len() >= first_burst,
            "slow start should open the window"
        );
        assert!(s.core.srtt().is_some());
    }

    #[test]
    fn transfer_completion_reported() {
        let mut s = sender();
        let mut out = Vec::new();
        let id = s.start_transfer(SimTime::ZERO, 5000, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent: u64 = out
            .iter()
            .map(|p| match p.payload {
                Payload::Data { len, .. } => len as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(sent, 5000);
        let t1 = SimTime::from_millis(20);
        s.on_ack(t1, 5000, SimTime::ZERO, 0, &mut Vec::new());
        let done = s.core.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].bytes, 5000);
        assert_eq!(done[0].completed_at, t1);
        assert!(s.is_idle());
        // Throughput: 5000 B in 20 ms = 2 Mbps.
        assert!((done[0].throughput().mbps() - 2.0).abs() < 0.01);
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let w0 = s.core.cwnd();
        out.clear();

        // First segment lost: receiver keeps ACKing 0... wait, receiver
        // would ACK cum=0 on each out-of-order arrival. Simulate 3 dupacks.
        for _ in 0..2 {
            s.on_ack(SimTime::from_millis(5), 0, SimTime::ZERO, 0, &mut out);
            assert_eq!(s.core.stats().loss_events, 0);
        }
        s.on_ack(SimTime::from_millis(6), 0, SimTime::ZERO, 0, &mut out);
        assert_eq!(s.core.stats().loss_events, 1);
        assert!(s.core.cwnd() < w0);
        // The retransmission of the first segment must be in `out`.
        let retxs: Vec<_> = out.iter().filter(|p| data_range(p).2).collect();
        assert_eq!(retxs.len(), 1);
        assert_eq!(data_range(retxs[0]).0, 0);
    }

    #[test]
    fn full_ack_exits_recovery() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 50_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let flight = s.bytes_in_flight();
        for _ in 0..3 {
            s.on_ack(SimTime::from_millis(5), 0, SimTime::ZERO, 0, &mut out);
        }
        assert_eq!(s.core.stats().loss_events, 1);
        // Receiver got the retransmission: full cumulative ACK.
        s.on_ack(SimTime::from_millis(10), flight, SimTime::ZERO, 0, &mut out);
        // Next loss event is a fresh one.
        s.pump(SimTime::from_millis(10), &mut out);
        for _ in 0..3 {
            s.on_ack(SimTime::from_millis(15), flight, SimTime::ZERO, 0, &mut out);
        }
        assert_eq!(s.core.stats().loss_events, 2);
    }

    #[test]
    fn rto_collapses_and_retransmits() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        out.clear();

        // No ACKs arrive; fire the timer past the RTO deadline.
        let deadline = s.next_wakeup(SimTime::ZERO).expect("rto armed");
        s.on_tick(deadline, &mut out);
        assert_eq!(s.core.stats().rtos, 1);
        assert_eq!(s.core.cwnd(), MSS_BYTES);
        // Go-back-N restart: first segment retransmitted.
        assert!(!out.is_empty());
        let (o, _, _) = data_range(&out[0]);
        assert_eq!(o, 0);
    }

    #[test]
    fn rto_backoff_doubles() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 10_000, None);
        s.pump(SimTime::ZERO, &mut out);

        let d1 = s.next_wakeup(SimTime::ZERO).unwrap();
        s.on_tick(d1, &mut out);
        let d2 = s.next_wakeup(d1).unwrap();
        s.on_tick(d2, &mut out);
        let d3 = s.next_wakeup(d2).unwrap();
        // Exponential backoff: interval roughly doubles.
        let i1 = d2.saturating_since(d1).as_secs_f64();
        let i2 = d3.saturating_since(d2).as_secs_f64();
        assert!(i2 > 1.5 * i1, "i1={i1} i2={i2}");
    }

    #[test]
    fn pacing_limits_release() {
        let mut s = TcpSender::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            TcpConfig {
                max_burst_packets: 4,
                ..Default::default()
            },
        );
        let mut out = Vec::new();
        // Pace at 12 Mbps: 1500 B wire packets, 1 per ms after the burst.
        s.start_transfer(SimTime::ZERO, 1_000_000, Some(Rate::from_mbps(12.0)));
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 4, "initial burst limited by burst size");

        // The pacer schedules the next release.
        let wake = s.next_wakeup(SimTime::ZERO).expect("pacer wakeup");
        assert!(wake > SimTime::ZERO);
        assert!(wake <= SimTime::from_millis(2));
        out.clear();
        s.on_tick(wake, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn paced_rate_is_honored_end_to_end() {
        // Drive with fixed 1 ms steps, acknowledging everything sent on each
        // step (an idealized zero-loss network). The pacer alone must limit
        // the average wire rate to the pace rate.
        let mut s = sender();
        let mut out = Vec::new();
        let pace = Rate::from_mbps(8.0);
        s.start_transfer(SimTime::ZERO, 2_000_000, Some(pace));
        let mut now = SimTime::ZERO;
        let mut wire_bytes = 0u64;
        let mut acked = 0u64;
        s.pump(now, &mut out);
        let mut finished_at = None;
        for _ in 0..10_000 {
            for p in out.drain(..) {
                if let Payload::Data { len, .. } = p.payload {
                    wire_bytes += len as u64 + HEADER_BYTES;
                }
            }
            acked += s.bytes_in_flight();
            s.on_ack(now, acked, now, 0, &mut out);
            if s.is_idle() && out.is_empty() {
                finished_at = Some(now);
                break;
            }
            now += SimDuration::from_millis(1);
            s.on_tick(now, &mut out);
        }
        let finished = finished_at.expect("transfer did not finish");
        let elapsed = finished.as_secs_f64();
        assert!(
            elapsed > 0.5,
            "transfer finished suspiciously fast: {elapsed}"
        );
        let avg = wire_bytes as f64 * 8.0 / elapsed;
        assert!(
            (avg - pace.bps()).abs() / pace.bps() < 0.1,
            "avg={avg} pace={}",
            pace.bps()
        );
    }

    #[test]
    fn per_transfer_pace_rates_switch() {
        let mut s = sender();
        let mut out = Vec::new();
        // First transfer larger than the initial window so the sender stays
        // inside it at t=0; second transfer at a different rate.
        s.start_transfer(SimTime::ZERO, 20 * MSS_BYTES, Some(Rate::from_mbps(1.0)));
        s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, Some(Rate::from_mbps(100.0)));
        s.pump(SimTime::ZERO, &mut out);
        // Still inside the first transfer: pacer at 1 Mbps.
        assert_eq!(s.core.pacer.rate().map(|r| r.mbps()), Some(1.0));
        // ACK what's outstanding; the window opens and the stream eventually
        // crosses into the second transfer, switching the pacer.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(100);
            s.on_ack(now, s.snd_nxt, now, 0, &mut out);
            if s.is_idle() {
                break;
            }
            if let Some(w) = s.next_wakeup(now) {
                now = now.max(w);
                s.on_tick(now, &mut out);
            }
        }
        assert!(s.is_idle());
        assert_eq!(s.core.pacer.rate().map(|r| r.mbps()), Some(100.0));
        assert_eq!(s.core.take_completed().len(), 2);
    }

    #[test]
    fn retransmit_fraction_stat() {
        let mut st = SenderStats {
            bytes_sent: 1000,
            retx_bytes: 50,
            ..Default::default()
        };
        assert!((st.retransmit_fraction() - 0.05).abs() < 1e-12);
        st.bytes_sent = 0;
        assert_eq!(st.retransmit_fraction(), 0.0);
    }

    #[test]
    fn late_ack_after_rto_does_not_underflow_flight() {
        // Regression: RTO fires (go-back-N: snd_nxt = snd_una), then an ACK
        // for data sent before the reset arrives. Flight accounting must
        // not underflow and the transfer must still complete.
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 100_000, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent = s.snd_nxt;
        assert!(sent > 0);

        // RTO fires with everything unacked.
        let deadline = s.next_wakeup(SimTime::ZERO).unwrap();
        s.on_tick(deadline, &mut out);
        assert_eq!(s.core.stats().rtos, 1);

        // A late cumulative ACK for all pre-reset data arrives.
        out.clear();
        s.on_ack(
            deadline + SimDuration::from_millis(1),
            sent,
            SimTime::ZERO,
            0,
            &mut out,
        );
        assert!(
            s.bytes_in_flight() < 1 << 40,
            "flight underflowed: {}",
            s.bytes_in_flight()
        );

        // The connection keeps making progress to completion.
        let mut now = deadline + SimDuration::from_millis(1);
        let mut acked = sent;
        for _ in 0..500 {
            if s.is_idle() {
                break;
            }
            now += SimDuration::from_millis(5);
            acked += s.bytes_in_flight();
            s.on_ack(now, acked, now, 0, &mut out);
            s.on_tick(now, &mut out);
        }
        assert!(s.is_idle(), "transfer wedged after late ACK");
    }

    #[test]
    fn idle_restart_resets_cwnd() {
        let mut s = sender();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 1_000_000, None);
        s.pump(SimTime::ZERO, &mut out);
        // Grow the window a lot.
        let mut now = SimTime::ZERO;
        for _ in 0..20 {
            now += SimDuration::from_millis(10);
            s.on_ack(
                now,
                s.snd_nxt,
                now - SimDuration::from_millis(10),
                0,
                &mut out,
            );
        }
        assert!(s.core.cwnd() > 20 * MSS_BYTES);
        assert!(s.is_idle());

        // Long idle, then a new transfer: window restarts at IW.
        let later = now + SimDuration::from_secs(30);
        s.start_transfer(later, 100_000, None);
        out.clear();
        s.pump(later, &mut out);
        assert_eq!(
            out.len(),
            10,
            "slow-start restart should cap the burst at IW"
        );
    }
}
