//! A QUIC-style transport: stream multiplexing over one connection.
//!
//! [`QuicSender`] and [`QuicReceiver`] implement the transport properties
//! that distinguish QUIC from the TCP model in [`crate::sender`]:
//!
//! - **Stream multiplexing.** Each application transfer is its own stream;
//!   streams share one connection, one congestion controller, and one
//!   pacer.
//! - **Monotonic packet numbers + ACK ranges.** Packets are never
//!   retransmitted under the same number; the receiver acknowledges
//!   received *packet-number ranges*, so the sender knows exactly which
//!   frames arrived.
//! - **Selective retransmission, no head-of-line blocking.** A lost packet
//!   only re-queues its own stream bytes; other streams keep completing,
//!   and there is no go-back-N.
//! - **Connection-level flow control.** The receiver advertises `max_data`
//!   (delivered bytes + window); the sender never has more cumulative
//!   stream bytes outstanding than that credit.
//! - **Loss detection.** Packet-threshold reordering detection (3 packets,
//!   RFC 9002-style) plus a probe timeout (PTO) with exponential backoff.
//!
//! The sender runs on the same [`SenderCore`] as the TCP sender — the
//! same pacer, application-informed pace rule (the rate rides on
//! [`QuicSender::start_transfer`]), RTT sampling, timeout backoff and
//! telemetry, with the congestion controller chosen by [`TcpConfig::cc`] —
//! so the Sammy-vs-baseline A/B can vary transport and congestion control
//! independently.

use crate::sender::{SenderStats, TcpConfig};
use crate::sender_core::SenderCore;
use netsim::{FlowId, NodeId, Packet, Payload, Rate, SimTime, MSS_BYTES};
use std::collections::VecDeque;

/// Reordering threshold before a packet is declared lost (RFC 9002 §6.1.1).
const PACKET_THRESHOLD: u64 = 3;
/// Connection flow-control credit assumed before the first ACK arrives
/// (stands in for QUIC's `initial_max_data` transport parameter).
pub const INITIAL_MAX_DATA: u64 = 8 << 20;
/// Flow-control window the receiver keeps open beyond delivered bytes.
pub const FLOW_WINDOW: u64 = 8 << 20;
/// ACK ranges carried per ACK packet (the wire format holds three).
const ACK_RANGES: usize = 3;
/// Received packet-number ranges remembered by the receiver. Older ranges
/// beyond this are forgotten (they are covered by retransmitted data).
const MAX_TRACKED_RANGES: usize = 8;

/// Insert `[start, end)` into a sorted, disjoint range set. Returns the
/// number of bytes newly covered (not previously in the set).
fn range_insert(set: &mut Vec<(u64, u64)>, start: u64, end: u64) -> u64 {
    if start >= end {
        return 0;
    }
    let mut new_start = start;
    let mut new_end = end;
    let mut overlap = 0u64;
    let mut merged = Vec::with_capacity(set.len() + 1);
    let mut placed = false;
    for &(s, e) in set.iter() {
        if e < new_start {
            merged.push((s, e));
        } else if s > new_end {
            if !placed {
                merged.push((new_start, new_end));
                placed = true;
            }
            merged.push((s, e));
        } else {
            overlap += e.min(new_end).saturating_sub(s.max(new_start));
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
    }
    if !placed {
        merged.push((new_start, new_end));
    }
    *set = merged;
    (end - start) - overlap
}

/// Subtract a sorted, disjoint range set from `[start, end)`, yielding the
/// sub-ranges not covered by the set.
fn range_subtract(set: &[(u64, u64)], start: u64, end: u64) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    let mut cursor = start;
    for &(s, e) in set {
        if e <= cursor {
            continue;
        }
        if s >= end {
            break;
        }
        if s > cursor {
            out.push((cursor, s.min(end)));
        }
        cursor = cursor.max(e);
        if cursor >= end {
            break;
        }
    }
    if cursor < end {
        out.push((cursor, end));
    }
    out
}

/// Bookkeeping for one sent (not yet fully resolved) packet.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    pkt_num: u64,
    stream: u64,
    offset: u64,
    len: u32,
    acked: bool,
    lost: bool,
}

/// Sender-side stream state: one application transfer.
#[derive(Debug)]
struct SendStream {
    id: u64,
    len: u64,
    /// Next fresh byte to send.
    sent: u64,
    /// Stream bytes acknowledged, as a sorted disjoint range set.
    acked: Vec<(u64, u64)>,
    acked_bytes: u64,
    /// Stream ranges queued for retransmission, sorted and disjoint.
    retx: Vec<(u64, u64)>,
    /// Every stream range ever declared lost (validate feature), checked
    /// by `quic-retx-conservation`.
    #[cfg(feature = "validate")]
    lost: Vec<(u64, u64)>,
    pace: Option<Rate>,
    queued_at: SimTime,
    started_at: Option<SimTime>,
}

/// QUIC-style sender: streams over one congestion-controlled, paced
/// connection. Mirrors the [`crate::TcpSender`] API so host endpoints can
/// drive either transport.
#[derive(Debug)]
pub struct QuicSender {
    pub(crate) core: SenderCore,

    next_pkt_num: u64,
    largest_acked: Option<u64>,
    /// Sent packets not yet resolved (acked or lost), ordered by pkt_num.
    sent: VecDeque<SentPacket>,
    bytes_in_flight: u64,

    streams: Vec<SendStream>,
    next_stream_id: u64,

    /// Cumulative fresh stream bytes sent (flow-control consumption).
    conn_sent: u64,
    /// Receiver-advertised connection flow-control credit.
    peer_max_data: u64,

    /// Loss events within one recovery epoch count once: the epoch ends
    /// when a packet numbered at/after this is acknowledged.
    recovery_end: Option<u64>,
}

impl QuicSender {
    /// Create a sender for a connection from `src` to `dst`. `cfg.cc`
    /// selects the congestion controller; `cfg.max_burst_packets` bounds
    /// line-rate bursts exactly as for TCP.
    pub fn new(src: NodeId, dst: NodeId, flow: FlowId, cfg: TcpConfig) -> Self {
        QuicSender {
            core: SenderCore::new(src, dst, flow, cfg),
            next_pkt_num: 0,
            largest_acked: None,
            sent: VecDeque::new(),
            bytes_in_flight: 0,
            streams: Vec::new(),
            next_stream_id: 0,
            conn_sent: 0,
            peer_max_data: INITIAL_MAX_DATA,
            recovery_end: None,
        }
    }

    /// The state and telemetry shared with the TCP sender.
    pub fn core(&self) -> &SenderCore {
        &self.core
    }

    /// Telemetry counters (the core's).
    pub fn stats(&self) -> &SenderStats {
        self.core.stats()
    }

    /// Open a new stream carrying `bytes`, paced at `pace` (or unpaced).
    /// Returns the stream id (doubles as the transfer id in completion
    /// reports).
    pub fn start_transfer(&mut self, now: SimTime, bytes: u64, pace: Option<Rate>) -> u64 {
        assert!(bytes > 0, "empty transfer");
        let id = self.next_stream_id;
        self.next_stream_id += 1;
        self.streams.push(SendStream {
            id,
            len: bytes,
            sent: 0,
            acked: Vec::new(),
            acked_bytes: 0,
            retx: Vec::new(),
            #[cfg(feature = "validate")]
            lost: Vec::new(),
            pace,
            queued_at: now,
            started_at: None,
        });
        id
    }

    /// True when every opened stream has been fully acknowledged.
    pub fn is_idle(&self) -> bool {
        self.streams.is_empty()
    }

    /// Bytes in flight (sent, neither acked nor declared lost).
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// When the sender next needs a timer callback: the earlier of the PTO
    /// deadline and the pacer release time (when there is something to
    /// send but pacing blocks).
    pub fn next_wakeup(&mut self, now: SimTime) -> Option<SimTime> {
        let next = self.has_sendable_frame().then_some(MSS_BYTES);
        self.core.next_wakeup(now, next)
    }

    /// Handle an arriving [`Payload::QuicAck`] for this connection.
    /// Returns false (untouched) for any other packet.
    pub fn on_ack_packet(&mut self, now: SimTime, pkt: &Packet, out: &mut Vec<Packet>) -> bool {
        let Payload::QuicAck {
            largest,
            echo_ts,
            ranges,
            max_data,
        } = pkt.payload
        else {
            return false;
        };
        if pkt.flow != self.core.flow() {
            return false;
        }
        self.on_quic_ack(now, largest, echo_ts, &ranges, max_data, out);
        true
    }

    /// Process an ACK: credit newly acknowledged packets, detect losses by
    /// packet threshold, update the congestion controller, and pump.
    pub fn on_quic_ack(
        &mut self,
        now: SimTime,
        largest: u64,
        echo_ts: SimTime,
        ranges: &[(u64, u64); 3],
        max_data: u64,
        out: &mut Vec<Packet>,
    ) {
        self.peer_max_data = self.peer_max_data.max(max_data);
        let was_in_recovery = self.recovery_end.is_some();

        let acked_range = |pn: u64| ranges.iter().any(|&(s, e)| s < e && pn >= s && pn < e);

        // Pass 1: credit newly acknowledged packets.
        let mut newly_acked = 0u64;
        let mut progressed = false;
        for i in 0..self.sent.len() {
            let sp = self.sent[i];
            if sp.acked || sp.pkt_num > largest {
                continue;
            }
            if !acked_range(sp.pkt_num) {
                continue;
            }
            self.sent[i].acked = true;
            progressed = true;
            if !sp.lost {
                // Lost packets already left the in-flight count; a late
                // (spurious-loss) ACK must not subtract twice.
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(sp.len as u64);
                newly_acked += sp.len as u64;
            }
            if let Some(r) = self.recovery_end {
                if sp.pkt_num >= r {
                    self.recovery_end = None;
                }
            }
            if let Some(s) = self.streams.iter_mut().find(|s| s.id == sp.stream) {
                let added = range_insert(&mut s.acked, sp.offset, sp.offset + sp.len as u64);
                s.acked_bytes += added;
            }
        }

        if largest > self.largest_acked.unwrap_or(0) || self.largest_acked.is_none() {
            self.largest_acked = Some(largest);
        }

        // RTT sample from the echoed timestamp, taken only when the ACK
        // acknowledged something new (RFC 9002 §5.1).
        let rtt = if progressed {
            self.core.on_progress(now, echo_ts)
        } else {
            None
        };

        // Pass 2: packet-threshold loss detection. Anything unacked and
        // PACKET_THRESHOLD below the largest acknowledged packet is lost.
        let largest_acked = self.largest_acked.unwrap_or(0);
        for i in 0..self.sent.len() {
            let sp = self.sent[i];
            if sp.acked || sp.lost {
                continue;
            }
            if sp.pkt_num + PACKET_THRESHOLD > largest_acked {
                break;
            }
            self.sent[i].lost = true;
            self.bytes_in_flight = self.bytes_in_flight.saturating_sub(sp.len as u64);
            self.queue_retransmission(sp);
            // One congestion response per recovery epoch.
            if self.recovery_end.is_none_or(|r| sp.pkt_num >= r) {
                self.core.on_loss_event(now);
                self.recovery_end = Some(self.next_pkt_num);
            }
        }

        // Drop fully resolved packets from the front of the deque.
        while let Some(front) = self.sent.front() {
            if front.acked || front.lost {
                self.sent.pop_front();
            } else {
                break;
            }
        }

        if newly_acked > 0 {
            self.core.cc.on_ack(now, newly_acked, rtt, was_in_recovery);
            self.core.cc.on_inflight(now, self.bytes_in_flight);
        }

        self.complete_streams(now);

        if self.bytes_in_flight == 0 && !self.has_sendable_frame() {
            self.core.clear_timeout();
        } else if progressed {
            self.core.arm_timeout(now);
        }

        self.pump(now, out);
    }

    /// Timer callback: PTO expiry and pacing-released transmission.
    pub fn on_tick(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let outstanding = self.bytes_in_flight > 0 || !self.sent.is_empty();
        if self.core.fire_timeout(now, outstanding) {
            // Probe timeout: declare the oldest outstanding packet lost and
            // retransmit it as the probe.
            if let Some(i) = self.sent.iter().position(|sp| !sp.acked && !sp.lost) {
                let sp = self.sent[i];
                self.sent[i].lost = true;
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(sp.len as u64);
                self.queue_retransmission(sp);
            }
            self.recovery_end = Some(self.next_pkt_num);
        }
        self.pump(now, out);
    }

    /// Kick transmission (e.g. right after the application opens a stream).
    pub fn pump(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let quiet = self.bytes_in_flight == 0 && self.has_sendable_frame();
        self.core.idle_restart(now, quiet);

        loop {
            let Some((stream_idx, offset, len, retx)) = self.next_frame() else {
                // Window open but nothing to send: if streams still have
                // unsent data the limit is flow control, otherwise the
                // application — tell the controller about the latter.
                if self.bytes_in_flight < self.core.cwnd()
                    && !self.streams.is_empty()
                    && self.streams.iter().all(|s| s.sent >= s.len)
                    && self.streams.iter().all(|s| s.retx.is_empty())
                {
                    self.core.cc.on_app_limited(now);
                }
                break;
            };
            let streams = &self.streams;
            let app = || streams.iter().find(|s| s.acked_bytes < s.len)?.pace;
            if !self.core.pace(now, len, app) {
                break;
            }
            self.emit_frame(now, stream_idx, offset, len, retx, out);
        }
        self.check_invariants();
    }

    /// Sender sanity (validate feature): flight accounting never exceeds
    /// the flow-control credit plus retransmissions, cwnd stays above one
    /// MSS, the core's pace bounds hold, and no byte declared lost is
    /// forgotten: each one is acknowledged, queued in `retx`, or back in
    /// flight in a retransmission.
    #[cfg(feature = "validate")]
    fn check_invariants(&self) {
        netsim::invariant!(
            "quic-sender-sanity",
            self.conn_sent <= self.peer_max_data,
            "flow control violated: sent {} credit {}",
            self.conn_sent,
            self.peer_max_data
        );
        netsim::invariant!(
            "quic-sender-sanity",
            self.core.cwnd() >= MSS_BYTES,
            "cwnd {} below one MSS",
            self.core.cwnd()
        );
        self.core.check_pace();
        for s in self.streams.iter().filter(|s| !s.lost.is_empty()) {
            let mut covered = s.acked.clone();
            for &(start, end) in &s.retx {
                range_insert(&mut covered, start, end);
            }
            for sp in &self.sent {
                if sp.stream == s.id && !sp.acked && !sp.lost {
                    range_insert(&mut covered, sp.offset, sp.offset + sp.len as u64);
                }
            }
            for &(start, end) in &s.lost {
                let missing = range_subtract(&covered, start, end);
                netsim::invariant!(
                    "quic-retx-conservation",
                    missing.is_empty(),
                    "stream {} lost bytes {:?} neither acked, queued nor in flight",
                    s.id,
                    missing
                );
            }
        }
    }

    #[cfg(not(feature = "validate"))]
    #[inline(always)]
    fn check_invariants(&self) {}

    /// Mutant mode: drop the first queued retransmission range without
    /// sending it, as a consume-before-pacer-gate bug would. Must trip
    /// `quic-retx-conservation`.
    ///
    /// # Panics
    /// Panics (as intended) via the invariant; also panics if no
    /// retransmission is queued (declare a loss first).
    #[cfg(feature = "validate")]
    pub fn mutant_drop_retx(&mut self) {
        let s = self
            .streams
            .iter_mut()
            .find(|s| !s.retx.is_empty())
            .expect("retx mutant needs a queued retransmission");
        s.retx.remove(0);
        self.check_invariants();
    }

    /// Is there any frame we could send right now (ignoring pacing)?
    fn has_sendable_frame(&self) -> bool {
        let retx = self.streams.iter().any(|s| !s.retx.is_empty());
        if retx {
            return true;
        }
        self.bytes_in_flight < self.core.cwnd()
            && self.conn_sent < self.peer_max_data
            && self.streams.iter().any(|s| s.sent < s.len)
    }

    /// Choose the next frame: retransmissions first (oldest stream first),
    /// then fresh data in stream-open order, subject to cwnd and
    /// connection flow control. Returns (stream index, offset, len, retx).
    /// Only peeks: `emit_frame` consumes a retransmission range once the
    /// pacer has let its frame out, so a frame the pacer holds back is
    /// offered again. Fully acknowledged retransmission ranges are pruned.
    fn next_frame(&mut self) -> Option<(usize, u64, u64, bool)> {
        // Retransmissions bypass the window (they replace bytes that left
        // the flight count), exactly as TCP's recovery retransmit does.
        for (i, s) in self.streams.iter_mut().enumerate() {
            while let Some(&(start, end)) = s.retx.first() {
                // Skip anything acknowledged since the loss was declared
                // (spurious retransmissions waste the bottleneck).
                let pending = range_subtract(&s.acked, start, end);
                match pending.first() {
                    None => {
                        s.retx.remove(0);
                        continue;
                    }
                    Some(&(ps, pe)) => return Some((i, ps, (pe - ps).min(MSS_BYTES), true)),
                }
            }
        }
        if self.bytes_in_flight >= self.core.cwnd() {
            return None;
        }
        let budget = self.peer_max_data.saturating_sub(self.conn_sent);
        if budget == 0 {
            return None;
        }
        for (i, s) in self.streams.iter().enumerate() {
            if s.sent < s.len {
                let len = (s.len - s.sent).min(MSS_BYTES).min(budget);
                return Some((i, s.sent, len, false));
            }
        }
        None
    }

    fn emit_frame(
        &mut self,
        now: SimTime,
        stream_idx: usize,
        offset: u64,
        len: u64,
        retx: bool,
        out: &mut Vec<Packet>,
    ) {
        let pkt_num = self.next_pkt_num;
        self.next_pkt_num += 1;
        let s = &mut self.streams[stream_idx];
        let fin = offset + len == s.len;
        let stream_id = s.id;
        if s.started_at.is_none() {
            s.started_at = Some(now);
        }
        if retx {
            // Consume the head retransmission range `next_frame` peeked.
            let end = s.retx[0].1;
            if offset + len >= end {
                s.retx.remove(0);
            } else {
                s.retx[0] = (offset + len, end);
            }
        } else {
            debug_assert_eq!(offset, s.sent);
            s.sent += len;
            self.conn_sent += len;
        }
        self.sent.push_back(SentPacket {
            pkt_num,
            stream: stream_id,
            offset,
            len: len as u32,
            acked: false,
            lost: false,
        });
        self.bytes_in_flight += len;
        let payload = Payload::QuicData {
            pkt_num,
            stream: stream_id,
            offset,
            len: len as u32,
            fin,
            retx,
        };
        self.core.send(now, payload, len, retx, out);
        self.core.ensure_timeout(now);
    }

    /// Queue a lost packet's stream bytes for selective retransmission,
    /// minus anything the receiver has meanwhile acknowledged.
    fn queue_retransmission(&mut self, sp: SentPacket) {
        if let Some(s) = self.streams.iter_mut().find(|s| s.id == sp.stream) {
            #[cfg(feature = "validate")]
            range_insert(&mut s.lost, sp.offset, sp.offset + sp.len as u64);
            for (rs, re) in range_subtract(&s.acked, sp.offset, sp.offset + sp.len as u64) {
                range_insert(&mut s.retx, rs, re);
            }
        }
    }

    fn complete_streams(&mut self, now: SimTime) {
        let core = &mut self.core;
        self.streams.retain(|s| {
            let done = s.acked_bytes >= s.len;
            if done {
                core.complete(now, s.id, s.len, s.queued_at, s.started_at);
            }
            !done
        });
    }
}

/// Receiver-side stream reassembly state.
#[derive(Debug)]
struct RecvStream {
    id: u64,
    /// Contiguously received prefix.
    contig: u64,
    /// Buffered out-of-order ranges.
    ooo: Vec<(u64, u64)>,
    /// Total stream length, learned from the `fin` frame.
    fin_len: Option<u64>,
    done: bool,
}

/// QUIC-style receiver: per-stream reassembly, packet-number range
/// tracking, and connection flow-control advertisement.
#[derive(Debug)]
pub struct QuicReceiver {
    local: NodeId,
    remote: NodeId,
    flow: FlowId,
    /// Largest packet number received.
    largest: Option<u64>,
    /// Received packet-number ranges `[start, end)`, ascending, disjoint.
    pkt_ranges: Vec<(u64, u64)>,
    streams: Vec<RecvStream>,
    /// Sum of contiguous prefixes across all streams — the
    /// application-visible delivered byte count.
    delivered: u64,
    /// Total payload bytes received (including duplicates).
    pub bytes_received: u64,
    /// Payload bytes that duplicated already-held data.
    pub duplicate_bytes: u64,
}

impl QuicReceiver {
    /// Create a receiver at `local` for data sent by `remote` on `flow`.
    pub fn new(local: NodeId, remote: NodeId, flow: FlowId) -> Self {
        QuicReceiver {
            local,
            remote,
            flow,
            largest: None,
            pkt_ranges: Vec::new(),
            streams: Vec::new(),
            delivered: 0,
            bytes_received: 0,
            duplicate_bytes: 0,
        }
    }

    /// The flow id this receiver listens on.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Application-visible delivered bytes: the sum of every stream's
    /// contiguous prefix (the QUIC analogue of TCP's `contiguous_bytes`).
    pub fn contiguous_bytes(&self) -> u64 {
        self.delivered
    }

    /// Handle an arriving [`Payload::QuicData`] frame, producing the ACK
    /// to send back. `None` for packets that are not QUIC data frames of
    /// this flow.
    pub fn on_data(&mut self, _now: SimTime, pkt: &Packet) -> Option<Packet> {
        let Payload::QuicData {
            pkt_num,
            stream,
            offset,
            len,
            fin,
            ..
        } = pkt.payload
        else {
            return None;
        };
        if pkt.flow != self.flow {
            return None;
        }
        self.bytes_received += len as u64;
        range_insert(&mut self.pkt_ranges, pkt_num, pkt_num + 1);
        if self.pkt_ranges.len() > MAX_TRACKED_RANGES {
            // Forget the oldest ranges; data under them is long delivered.
            let excess = self.pkt_ranges.len() - MAX_TRACKED_RANGES;
            self.pkt_ranges.drain(..excess);
        }
        self.largest = Some(self.largest.map_or(pkt_num, |l| l.max(pkt_num)));

        let end = offset + len as u64;
        let s = match self.streams.iter_mut().rev().find(|s| s.id == stream) {
            Some(s) => s,
            None => {
                self.streams.push(RecvStream {
                    id: stream,
                    contig: 0,
                    ooo: Vec::new(),
                    fin_len: None,
                    done: false,
                });
                self.streams.last_mut().expect("just pushed")
            }
        };
        if fin {
            s.fin_len = Some(end);
        }
        if s.done || end <= s.contig {
            self.duplicate_bytes += len as u64;
        } else {
            let added = range_insert(&mut s.ooo, offset.max(s.contig), end);
            self.duplicate_bytes += (end - offset.max(s.contig)) - added;
            // Advance the contiguous prefix over any now-filled holes.
            let before = s.contig;
            while let Some(&(rs, re)) = s.ooo.first() {
                if rs <= s.contig {
                    s.contig = s.contig.max(re);
                    s.ooo.remove(0);
                } else {
                    break;
                }
            }
            self.delivered += s.contig - before;
            if s.fin_len == Some(s.contig) {
                s.done = true;
                s.ooo = Vec::new();
            }
        }

        Some(Packet::new(
            self.local,
            self.remote,
            self.flow,
            Payload::QuicAck {
                largest: self.largest.unwrap_or(0),
                echo_ts: pkt.sent_at,
                ranges: self.ack_ranges(),
                max_data: self.delivered + FLOW_WINDOW,
            },
        ))
    }

    /// The highest [`ACK_RANGES`] received ranges, descending.
    fn ack_ranges(&self) -> [(u64, u64); ACK_RANGES] {
        let mut out = [(0u64, 0u64); ACK_RANGES];
        for (slot, &(s, e)) in self.pkt_ranges.iter().rev().take(ACK_RANGES).enumerate() {
            out[slot] = (s, e);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::CcAlgorithm;
    use netsim::{SimDuration, HEADER_BYTES};

    fn pair() -> (QuicSender, QuicReceiver) {
        let cfg = TcpConfig::default();
        (
            QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg),
            QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1)),
        )
    }

    /// Deliver `pkts` to the receiver (skipping indices in `drop`),
    /// feeding every generated ACK straight back to the sender.
    fn deliver(
        s: &mut QuicSender,
        r: &mut QuicReceiver,
        now: SimTime,
        pkts: Vec<Packet>,
        drop: &[usize],
    ) -> Vec<Packet> {
        let mut next = Vec::new();
        for (i, mut pkt) in pkts.into_iter().enumerate() {
            if drop.contains(&i) {
                continue;
            }
            pkt.sent_at = now;
            let ack = r.on_data(now, &pkt).expect("data frame");
            s.on_ack_packet(now + SimDuration::from_millis(10), &ack, &mut next);
        }
        next
    }

    #[test]
    fn range_helpers() {
        let mut set = Vec::new();
        assert_eq!(range_insert(&mut set, 0, 10), 10);
        assert_eq!(range_insert(&mut set, 20, 30), 10);
        assert_eq!(range_insert(&mut set, 5, 25), 10);
        assert_eq!(set, vec![(0, 30)]);
        assert_eq!(range_subtract(&set, 0, 40), vec![(30, 40)]);
        assert_eq!(
            range_subtract(&[(5, 10), (20, 25)], 0, 30),
            vec![(0, 5), (10, 20), (25, 30)]
        );
    }

    #[test]
    fn single_stream_transfer_completes() {
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        let id = s.start_transfer(SimTime::ZERO, 10_000, None);
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 7, "10 kB = 7 MSS frames");
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while !s.is_idle() {
            now += SimDuration::from_millis(10);
            let pkts = std::mem::take(&mut out);
            out = deliver(&mut s, &mut r, now, pkts, &[]);
            guard += 1;
            assert!(guard < 100, "transfer wedged");
        }
        let done = s.core.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, id);
        assert_eq!(done[0].bytes, 10_000);
        assert_eq!(r.contiguous_bytes(), 10_000);
        assert_eq!(s.stats().retx_packets, 0);
    }

    #[test]
    fn lost_packet_does_not_block_other_streams() {
        // Stream A's lost frame must not delay stream B's completion: B
        // completes while A's hole is still outstanding (no go-back-N, no
        // cross-stream head-of-line blocking).
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        let a = s.start_transfer(SimTime::ZERO, 3 * MSS_BYTES, None);
        let b = s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 5);
        // Drop A's first frame (packet 0); everything else arrives.
        let t1 = SimTime::from_millis(10);
        let pkts = std::mem::take(&mut out);
        out = deliver(&mut s, &mut r, t1, pkts, &[0]);
        // B is fully acked even though A still has a hole.
        let done = s.core.take_completed();
        assert_eq!(done.len(), 1, "stream B must complete despite A's loss");
        assert_eq!(done[0].id, b);
        // The packet-threshold detector fired and queued A's bytes; the
        // retransmission is in `out`.
        assert_eq!(s.stats().loss_events, 1);
        let retx: Vec<_> = out
            .iter()
            .filter(|p| matches!(p.payload, Payload::QuicData { retx: true, .. }))
            .collect();
        assert_eq!(retx.len(), 1);
        match retx[0].payload {
            Payload::QuicData { stream, offset, .. } => {
                assert_eq!(stream, a);
                assert_eq!(offset, 0);
            }
            _ => unreachable!(),
        }
        // Deliver the tail: A completes.
        let t2 = SimTime::from_millis(20);
        let pkts = std::mem::take(&mut out);
        deliver(&mut s, &mut r, t2, pkts, &[]);
        let done = s.core.take_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, a);
        assert_eq!(r.contiguous_bytes(), 5 * MSS_BYTES);
    }

    #[test]
    fn retransmission_uses_fresh_packet_number() {
        let (mut s, mut r) = pair();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 6 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        let first_nums: Vec<u64> = out
            .iter()
            .map(|p| match p.payload {
                Payload::QuicData { pkt_num, .. } => pkt_num,
                _ => unreachable!(),
            })
            .collect();
        let max_num = *first_nums.iter().max().unwrap();
        let pkts = std::mem::take(&mut out);
        let out = deliver(&mut s, &mut r, SimTime::from_millis(10), pkts, &[1]);
        for p in &out {
            if let Payload::QuicData { pkt_num, retx, .. } = p.payload {
                if retx {
                    assert!(pkt_num > max_num, "retx must use a fresh packet number");
                }
            }
        }
    }

    #[test]
    fn receiver_ack_ranges_describe_gaps() {
        let mut r = QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1));
        let mk = |pkt_num: u64, offset: u64| {
            Packet::new(
                NodeId(0),
                NodeId(1),
                FlowId(1),
                Payload::QuicData {
                    pkt_num,
                    stream: 0,
                    offset,
                    len: 100,
                    fin: false,
                    retx: false,
                },
            )
        };
        r.on_data(SimTime::ZERO, &mk(0, 0));
        r.on_data(SimTime::ZERO, &mk(1, 100));
        // Packet 2 lost.
        r.on_data(SimTime::ZERO, &mk(3, 300));
        let ack = r.on_data(SimTime::ZERO, &mk(5, 500)).unwrap();
        match ack.payload {
            Payload::QuicAck {
                largest, ranges, ..
            } => {
                assert_eq!(largest, 5);
                assert_eq!(ranges[0], (5, 6));
                assert_eq!(ranges[1], (3, 4));
                assert_eq!(ranges[2], (0, 2));
            }
            _ => panic!("not an ack"),
        }
    }

    #[test]
    fn connection_flow_control_caps_outstanding_bytes() {
        let cfg = TcpConfig {
            cc: CcAlgorithm::Cubic,
            ..Default::default()
        };
        let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
        let mut out = Vec::new();
        // Open far more data than the initial credit; grow cwnd out of the
        // way by acking in a loop and confirm conn_sent never passes the
        // advertised credit.
        s.start_transfer(SimTime::ZERO, 4 * INITIAL_MAX_DATA, None);
        s.pump(SimTime::ZERO, &mut out);
        let sent: u64 = out.iter().map(|p| p.payload.wire_bytes()).sum();
        assert!(sent <= INITIAL_MAX_DATA);
        // Simulate a receiver that never raises max_data beyond the
        // initial credit: echo ACKs with the same credit.
        let mut now = SimTime::ZERO;
        for _ in 0..200 {
            now += SimDuration::from_millis(10);
            let pkts = std::mem::take(&mut out);
            for pkt in pkts {
                if let Payload::QuicData { pkt_num, .. } = pkt.payload {
                    let ranges = [(0, pkt_num + 1), (0, 0), (0, 0)];
                    s.on_quic_ack(
                        now,
                        pkt_num,
                        pkt.sent_at,
                        &ranges,
                        INITIAL_MAX_DATA,
                        &mut out,
                    );
                }
            }
        }
        assert!(
            s.conn_sent <= INITIAL_MAX_DATA,
            "sender violated flow control: {} > {}",
            s.conn_sent,
            INITIAL_MAX_DATA
        );
    }

    #[test]
    fn pto_fires_and_retransmits() {
        let (mut s, _r) = pair();
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 2 * MSS_BYTES, None);
        s.pump(SimTime::ZERO, &mut out);
        out.clear();
        // Nothing comes back: the probe timeout must fire.
        let wake = s.next_wakeup(SimTime::ZERO).expect("pto armed");
        s.on_tick(wake, &mut out);
        assert_eq!(s.stats().rtos, 1);
        let retx: Vec<_> = out
            .iter()
            .filter(|p| matches!(p.payload, Payload::QuicData { retx: true, .. }))
            .collect();
        assert!(!retx.is_empty(), "PTO must retransmit a probe");
        // Backoff: the next deadline is further out.
        let w2 = s.next_wakeup(wake).expect("pto re-armed");
        assert!(w2.saturating_since(wake) > wake.saturating_since(SimTime::ZERO));
    }

    #[test]
    fn paced_stream_defers_release() {
        let cfg = TcpConfig {
            max_burst_packets: 4,
            ..Default::default()
        };
        let mut s = QuicSender::new(NodeId(0), NodeId(1), FlowId(1), cfg);
        let mut out = Vec::new();
        s.start_transfer(SimTime::ZERO, 1_000_000, Some(Rate::from_mbps(12.0)));
        s.pump(SimTime::ZERO, &mut out);
        assert_eq!(out.len(), 4, "burst limited by burst size");
        let wake = s.next_wakeup(SimTime::ZERO).expect("pacer wakeup");
        assert!(wake > SimTime::ZERO && wake <= SimTime::from_millis(2));
        out.clear();
        s.on_tick(wake, &mut out);
        assert!(!out.is_empty());
    }

    #[test]
    fn receiver_counts_duplicates() {
        let mut r = QuicReceiver::new(NodeId(1), NodeId(0), FlowId(1));
        let pkt = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 0,
                stream: 0,
                offset: 0,
                len: 1000,
                fin: false,
                retx: false,
            },
        );
        r.on_data(SimTime::ZERO, &pkt);
        let dup = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 1,
                stream: 0,
                offset: 0,
                len: 1000,
                fin: false,
                retx: true,
            },
        );
        r.on_data(SimTime::ZERO, &dup);
        assert_eq!(r.bytes_received, 2000);
        assert_eq!(r.duplicate_bytes, 1000);
        assert_eq!(r.contiguous_bytes(), 1000);
    }

    #[test]
    fn wire_sizes_match_tcp_framing() {
        let data = Packet::new(
            NodeId(0),
            NodeId(1),
            FlowId(1),
            Payload::QuicData {
                pkt_num: 0,
                stream: 0,
                offset: 0,
                len: MSS_BYTES as u32,
                fin: false,
                retx: false,
            },
        );
        assert_eq!(data.size, MSS_BYTES + HEADER_BYTES);
        let ack = Packet::new(
            NodeId(1),
            NodeId(0),
            FlowId(1),
            Payload::QuicAck {
                largest: 0,
                echo_ts: SimTime::ZERO,
                ranges: [(0, 1), (0, 0), (0, 0)],
                max_data: 0,
            },
        );
        assert_eq!(ack.size, HEADER_BYTES);
    }
}
