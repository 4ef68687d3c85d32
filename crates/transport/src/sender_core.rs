//! The sender core: what the TCP and QUIC senders share.
//!
//! [`TcpSender`](crate::TcpSender) and [`QuicSender`](crate::QuicSender)
//! differ only in how they name, acknowledge and recover data: a byte
//! sequence space with cumulative ACKs against streams, packet numbers and
//! ACK ranges. Everything else a sender holds and decides is the same for
//! both and lives in one [`SenderCore`]:
//!
//! - the connection identity and [`TcpConfig`], the congestion controller,
//!   the [`Pacer`], the [`RttEstimator`] and the per-packet RTT t-digest,
//!   [`SenderStats`] and the completed-transfer reports;
//! - the effective pace: `min(application rate, controller rate)`, the
//!   application-informed pacing rule of paper §3.2;
//! - RTT sampling from the echoed timestamp of an ACK that made progress;
//! - the retransmission timeout (TCP's RTO, QUIC's PTO): deadline,
//!   exponential backoff capped at 2^10, and what firing it costs;
//! - per-packet send and loss-event accounting, slow-start restart after
//!   idle, and the `pacing-rate-bounds` invariant.
//!
//! The protocol senders call into the core at fixed points; the core never
//! looks at sequence numbers, streams or packet numbers.

use crate::cc::CongestionControl;
use crate::pacing::Pacer;
use crate::rtt::RttEstimator;
use crate::sender::{CompletedTransfer, SenderStats, TcpConfig};
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimDuration, SimTime, HEADER_BYTES};
use tdigest::TDigest;

/// Largest timeout backoff exponent: the timeout grows to at most 2^10 RTO.
const MAX_BACKOFF: u32 = 10;

/// Connection state and decisions shared by every sender protocol.
#[derive(Debug)]
pub struct SenderCore {
    src: NodeId,
    dst: NodeId,
    flow: FlowId,
    pub(crate) cfg: TcpConfig,
    pub(crate) cc: Box<dyn CongestionControl>,
    pub(crate) pacer: Pacer,
    rtt: RttEstimator,
    rtt_digest: TDigest,
    stats: SenderStats,
    completed: Vec<CompletedTransfer>,
    /// Last time any packet was sent (for idle restart).
    last_send: Option<SimTime>,
    /// Retransmission-timeout deadline, armed while data is outstanding.
    timeout: Option<SimTime>,
    /// Consecutive-timeout backoff exponent.
    backoff: u32,
}

impl SenderCore {
    /// A core for a connection from `src` to `dst`: `cfg.cc` picks the
    /// controller and `cfg.max_burst_packets` bounds line-rate bursts.
    pub(crate) fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        SenderCore {
            src,
            dst,
            flow,
            cc: cfg.cc.build(),
            pacer: Pacer::unlimited(cfg.max_burst_packets),
            cfg,
            rtt: RttEstimator::new(),
            rtt_digest: TDigest::new(100.0),
            stats: SenderStats::default(),
            completed: Vec::new(),
            last_send: None,
            timeout: None,
            backoff: 0,
        }
    }

    /// The flow id this sender transmits on.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Telemetry counters.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// Per-packet RTT samples (t-digest), as recorded by this connection.
    pub fn rtt_digest(&self) -> &TDigest {
        &self.rtt_digest
    }

    /// Smoothed RTT estimate.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.rtt.srtt()
    }

    /// Drain completed-transfer reports accumulated since the last call.
    pub fn take_completed(&mut self) -> Vec<CompletedTransfer> {
        std::mem::take(&mut self.completed)
    }

    /// When the sender next needs a timer callback: the earlier of the
    /// timeout deadline and, if a `next_len`-byte packet is waiting on the
    /// pacer, its release time.
    pub(crate) fn next_wakeup(&mut self, now: SimTime, next_len: Option<u64>) -> Option<SimTime> {
        let release = next_len.and_then(|len| self.pacer.next_release(now, len + HEADER_BYTES));
        match (self.timeout, release) {
            (Some(w), Some(t)) => Some(w.min(t)),
            (w, t) => w.or(t),
        }
    }

    /// May a `len`-byte packet leave now? Checks the pacer, moves its rate
    /// to the effective pace (`app` is the active transfer's
    /// application-informed rate), and checks again under that rate.
    pub(crate) fn pace(
        &mut self,
        now: SimTime,
        len: u64,
        app: impl FnOnce() -> Option<Rate>,
    ) -> bool {
        let wire = len + HEADER_BYTES;
        if !self.pacer.can_send(now, wire) {
            return false;
        }
        // The effective pace is the lower of the application's rate and
        // any rate the congestion controller itself requests (BBR-style).
        let rate = match (app(), self.cc.pacing_rate()) {
            (Some(a), Some(c)) => Some(a.min(c)),
            (a, c) => a.or(c),
        };
        if self.pacer.rate().map(|r| r.bps()) != rate.map(|r| r.bps()) {
            // `_new`: referenced only from the obs expansion.
            if let Some(_new) = rate {
                obs::observe!("transport.pacing_rate_mbps", _new.bps() / 1e6);
            }
            self.pacer.set_rate(now, rate);
        }
        self.pacer.can_send(now, wire)
    }

    /// Slow-start restart: when the protocol reports nothing in flight and
    /// data waiting (`quiet`) after a silence longer than one RTO, the
    /// controller's window no longer reflects the path.
    pub(crate) fn idle_restart(&mut self, now: SimTime, quiet: bool) {
        if self.cfg.idle_restart
            && quiet
            && self
                .last_send
                .is_some_and(|last| now.saturating_since(last) > self.rtt.rto())
        {
            self.cc.on_idle_restart(now);
        }
    }

    /// Put one data packet (`len` payload bytes) on the wire: charge the
    /// pacer, count it and any retransmission, and note the send time.
    pub(crate) fn send(
        &mut self,
        now: SimTime,
        payload: Payload,
        len: u64,
        retx: bool,
        out: &mut Vec<Packet>,
    ) {
        debug_assert!(len > 0);
        let pkt = Packet::new(self.src, self.dst, self.flow, payload);
        self.pacer.on_send(now, pkt.size);
        self.stats.bytes_sent += len;
        self.stats.packets_sent += 1;
        if retx {
            self.stats.retx_bytes += len;
            self.stats.retx_packets += 1;
            obs::counter!("transport.retx_packets", 1);
        }
        self.last_send = Some(now);
        out.push(pkt);
    }

    /// An ACK acknowledged new data: reset the timeout backoff and take an
    /// RTT sample from the echoed send timestamp (valid for
    /// retransmissions too). Returns the sample.
    pub(crate) fn on_progress(&mut self, now: SimTime, echo_ts: SimTime) -> Option<SimDuration> {
        self.backoff = 0;
        let rtt = now.checked_since(echo_ts);
        if let Some(r) = rtt {
            self.rtt.on_sample(r);
            self.rtt_digest.add(r.as_millis_f64());
            obs::observe!(
                "transport.srtt_ms",
                self.rtt.srtt().unwrap_or(r).as_millis_f64()
            );
            obs::gauge!("transport.cwnd_bytes", self.cc.cwnd() as f64);
        }
        rtt
    }

    /// A loss was detected: count the event and let the controller respond.
    pub(crate) fn on_loss_event(&mut self, now: SimTime) {
        self.stats.loss_events += 1;
        self.cc.on_loss_event(now);
        obs::counter!("transport.loss_events", 1);
        obs::trace_event!(TcpLossEvent, now.as_nanos(), self.cc.cwnd(), 0);
    }

    /// Fire the timeout if it is due and data is `outstanding`: count it,
    /// collapse the controller, back off and re-arm. Returns whether it
    /// fired; the caller then rewinds its own send state.
    pub(crate) fn fire_timeout(&mut self, now: SimTime, outstanding: bool) -> bool {
        if !outstanding || self.timeout.is_none_or(|deadline| now < deadline) {
            return false;
        }
        self.stats.rtos += 1;
        self.cc.on_rto(now);
        obs::counter!("transport.rtos", 1);
        obs::trace_event!(TcpRto, now.as_nanos(), self.cc.cwnd(), 0);
        self.backoff = (self.backoff + 1).min(MAX_BACKOFF);
        self.arm_timeout(now);
        true
    }

    /// (Re)start the timeout: one backed-off RTO from `now`.
    pub(crate) fn arm_timeout(&mut self, now: SimTime) {
        let rto = self.rtt.rto().saturating_mul(1 << self.backoff);
        self.timeout = Some(now + rto);
    }

    /// Arm the timeout unless it is already running.
    pub(crate) fn ensure_timeout(&mut self, now: SimTime) {
        if self.timeout.is_none() {
            self.arm_timeout(now);
        }
    }

    /// Nothing is outstanding: stop the timeout.
    pub(crate) fn clear_timeout(&mut self) {
        self.timeout = None;
    }

    /// Record a finished transfer; one with no recorded first send counts
    /// as started when it was queued.
    pub(crate) fn complete(
        &mut self,
        now: SimTime,
        id: u64,
        bytes: u64,
        queued_at: SimTime,
        started_at: Option<SimTime>,
    ) {
        self.completed.push(CompletedTransfer {
            id,
            bytes,
            queued_at,
            started_at: started_at.unwrap_or(queued_at),
            completed_at: now,
        });
    }

    /// The pace, when set, is finite, positive and under a 1 Tbps sanity
    /// cap (validate feature).
    #[cfg(feature = "validate")]
    pub(crate) fn check_pace(&self) {
        if let Some(rate) = self.pacer.rate() {
            netsim::invariant!(
                "pacing-rate-bounds",
                rate.bps().is_finite() && rate.bps() > 0.0 && rate.bps() <= 1e12,
                "pace {} bps outside (0, 1e12]",
                rate.bps()
            );
        }
    }
}
