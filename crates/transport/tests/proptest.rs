//! Property-based tests for the transport layer: every transfer completes
//! exactly, regardless of loss induced by queue sizes, pacing, or chunk
//! sizes.

use netsim::prelude::*;
use proptest::prelude::*;
use transport::{
    BbrLite, CongestionControl, Pacer, Protocol, ReceiverEndpoint, SenderEndpoint, TcpConfig,
};

/// Run one request/response transfer, returning (delivered stream bytes,
/// retransmit fraction, completed transfers).
fn run(
    bytes: u64,
    pace_mbps: Option<f64>,
    rate_mbps: f64,
    queue_mult: f64,
    burst: u32,
) -> (u64, f64, usize) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(rate_mbps),
            queue_bdp_multiple: queue_mult,
            ..Default::default()
        },
    );
    let flow = FlowId(1);
    sim.set_endpoint(
        db.left[0],
        Box::new(SenderEndpoint::new(
            db.left[0],
            db.right[0],
            flow,
            TcpConfig {
                max_burst_packets: burst,
                ..Default::default()
            },
        )),
    );
    sim.set_endpoint(
        db.right[0],
        Box::new(ReceiverEndpoint::new(db.right[0], db.left[0], flow)),
    );
    let req = Packet::new(
        db.right[0],
        db.left[0],
        flow,
        Payload::Request {
            id: 0,
            size: bytes,
            pace_bps: pace_mbps.map(|m| m * 1e6),
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_secs(300));

    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
    let retx = server.sender().stats().retransmit_fraction();
    let done = server.completed.len();
    let client: &mut ReceiverEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    (client.receiver().contiguous_bytes(), retx, done)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reliability: every byte of every transfer is eventually delivered in
    /// order, across queue sizes that force heavy loss.
    #[test]
    fn transfers_always_complete(
        kb in 10u64..2000,
        rate in 2.0f64..60.0,
        queue_mult in 0.5f64..6.0,
        burst in 1u32..40,
    ) {
        let bytes = kb * 1000;
        let (delivered, _retx, done) = run(bytes, None, rate, queue_mult, burst);
        prop_assert_eq!(delivered, bytes);
        prop_assert_eq!(done, 1);
    }

    /// Pacing below the bottleneck eliminates retransmissions entirely.
    #[test]
    fn paced_below_capacity_is_lossless(
        kb in 50u64..1500,
        rate in 10.0f64..80.0,
    ) {
        let pace = rate * 0.5;
        let (delivered, retx, _) = run(kb * 1000, Some(pace), rate, 4.0, 4);
        prop_assert_eq!(delivered, kb * 1000);
        prop_assert!(retx == 0.0, "retx {retx} with pace {pace} < rate {rate}");
    }

    /// Paced transfers never beat the pace rate (with a small burst bucket;
    /// the default 40-packet bucket deliberately allows a 60 kB line-rate
    /// burst, which dominates transfers of comparable size — that is the
    /// burst-size effect of the paper's Fig 4, tested separately).
    #[test]
    fn pace_is_an_upper_bound(kb in 100u64..1000, pace in 2.0f64..20.0) {
        let bytes = kb * 1000;
        let mut sim = Simulator::new();
        let db = Dumbbell::build(&mut sim, DumbbellConfig::default());
        let flow = FlowId(1);
        sim.set_endpoint(
            db.left[0],
            Box::new(SenderEndpoint::new(
                db.left[0],
                db.right[0],
                flow,
                TcpConfig { max_burst_packets: 4, ..Default::default() },
            )),
        );
        sim.set_endpoint(
            db.right[0],
            Box::new(ReceiverEndpoint::new(db.right[0], db.left[0], flow)),
        );
        let req = Packet::new(
            db.right[0],
            db.left[0],
            flow,
            Payload::Request { id: 0, size: bytes, pace_bps: Some(pace * 1e6) },
        );
        sim.inject(db.right[0], req);
        sim.run_until(SimTime::from_secs(600));
        let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
        prop_assert_eq!(server.completed.len(), 1);
        let tput = server.completed[0].throughput().mbps();
        // Allow the initial burst allowance a little slack on tiny files.
        prop_assert!(tput <= pace * 1.15, "tput {tput} > pace {pace}");
    }

    /// Reliability holds on the QUIC-style transport too: selective
    /// retransmission delivers every byte across loss-inducing queues.
    #[test]
    fn quic_transfers_always_complete(
        kb in 10u64..2000,
        rate in 2.0f64..60.0,
        queue_mult in 0.5f64..6.0,
        burst in 1u32..40,
    ) {
        let bytes = kb * 1000;
        let (delivered, done) = run_quic(bytes, None, rate, queue_mult, burst);
        prop_assert_eq!(done, 1);
        prop_assert_eq!(delivered, bytes);
    }

    /// Paced QUIC loses nothing to the pacer: a retransmission the pacer
    /// holds back stays queued until it can go out, so every transfer
    /// still completes when pacing above the bottleneck induces loss.
    #[test]
    fn paced_quic_transfers_always_complete(
        kb in 10u64..1000,
        rate in 2.0f64..30.0,
        pace_mult in 0.5f64..3.0,
        queue_mult in 0.5f64..4.0,
        burst in 1u32..20,
    ) {
        let bytes = kb * 1000;
        let (delivered, done) =
            run_quic(bytes, Some(rate * pace_mult), rate, queue_mult, burst);
        prop_assert_eq!(done, 1);
        prop_assert_eq!(delivered, bytes);
    }
}

/// Run one request/response transfer over the QUIC-style transport,
/// returning (delivered stream bytes, completed transfers).
fn run_quic(
    bytes: u64,
    pace_mbps: Option<f64>,
    rate_mbps: f64,
    queue_mult: f64,
    burst: u32,
) -> (u64, usize) {
    let mut sim = Simulator::new();
    let db = Dumbbell::build(
        &mut sim,
        DumbbellConfig {
            bottleneck_rate: Rate::from_mbps(rate_mbps),
            queue_bdp_multiple: queue_mult,
            ..Default::default()
        },
    );
    let flow = FlowId(1);
    sim.set_endpoint(
        db.left[0],
        Box::new(SenderEndpoint::new(
            db.left[0],
            db.right[0],
            flow,
            TcpConfig {
                transport: Protocol::Quic,
                max_burst_packets: burst,
                ..Default::default()
            },
        )),
    );
    sim.set_endpoint(
        db.right[0],
        Box::new(ReceiverEndpoint::with_protocol(
            db.right[0],
            db.left[0],
            flow,
            Protocol::Quic,
        )),
    );
    let req = Packet::new(
        db.right[0],
        db.left[0],
        flow,
        Payload::Request {
            id: 0,
            size: bytes,
            pace_bps: pace_mbps.map(|m| m * 1e6),
        },
    );
    sim.inject(db.right[0], req);
    sim.run_until(SimTime::from_secs(300));
    let server: &mut SenderEndpoint = sim.endpoint_mut(db.left[0]).unwrap();
    let done = server.completed.len();
    let client: &mut ReceiverEndpoint = sim.endpoint_mut(db.right[0]).unwrap();
    (client.receiver().contiguous_bytes(), done)
}

/// Greedily send MTU packets through `p` until `end`, starting at `now`.
/// Returns (bytes sent, time after the last attempt).
fn greedy_send(p: &mut Pacer, mut now: SimTime, end: SimTime) -> (u64, SimTime) {
    let mut sent = 0u64;
    while now < end {
        if p.can_send(now, MTU_BYTES) {
            p.on_send(now, MTU_BYTES);
            sent += MTU_BYTES;
        } else {
            // A sub-nanosecond token deficit rounds the wait to zero; nudge
            // forward like the endpoints do so the loop always advances.
            match p.next_release(now, MTU_BYTES) {
                Some(t) if t <= end => {
                    now = t.max(now + SimDuration::from_micros(1));
                }
                _ => break,
            }
        }
    }
    (sent, now)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pacer token-bucket soundness: across arbitrary `set_rate` churn and
    /// idle gaps, a greedy sender can never move more than the integral of
    /// the configured rate over time plus one bucket of burst allowance
    /// (tokens are capped at capacity, so idle time buys at most one
    /// bucket, never a backlog).
    #[test]
    fn pacer_long_run_rate_is_bounded(
        burst in 1u32..40,
        segments in prop::collection::vec(
            // (rate Mbps, duration ms, send during this segment?)
            (1.0f64..50.0, 1u64..400, any::<bool>()),
            1..12,
        ),
    ) {
        let mut p = Pacer::new(Some(Rate::from_mbps(segments[0].0)), burst);
        let capacity = burst as u64 * MTU_BYTES;
        let mut now = SimTime::ZERO;
        let mut sent = 0u64;
        let mut budget_bytes = capacity as f64;
        for &(mbps, ms, active) in &segments {
            p.set_rate(now, Some(Rate::from_mbps(mbps)));
            let end = now + SimDuration::from_millis(ms);
            budget_bytes += mbps * 1e6 / 8.0 * (ms as f64 / 1e3);
            if active {
                let (s, t) = greedy_send(&mut p, now, end);
                sent += s;
                now = t.max(end);
            } else {
                // Idle gap: tokens accrue but are capped at capacity.
                now = end;
            }
        }
        // One extra MTU of slack for the release-epsilon.
        prop_assert!(
            (sent as f64) <= budget_bytes + MTU_BYTES as f64,
            "sent {sent} > budget {budget_bytes:.0} (burst {burst})"
        );
    }

    /// BbrLite's bandwidth estimate converges to within 15% of the path
    /// capacity and stays there across app-limited trickle gaps (the gaps
    /// must neither drag the estimate down nor ratchet it up).
    #[test]
    fn bbr_converges_despite_app_limited_gaps(
        capacity in 5.0f64..80.0,
        rtt_ms in 5u64..40,
        gaps in 1usize..6,
    ) {
        let mut cc = BbrLite::new();
        let mut now = ack_epochs(&mut cc, SimTime::ZERO, capacity, rtt_ms, 25);
        for _ in 0..gaps {
            cc.on_app_limited(now);
            now = ack_epochs(&mut cc, now, 0.5, rtt_ms, 1);
            cc.on_app_limited(now);
            now = ack_epochs(&mut cc, now, capacity, rtt_ms, 3);
        }
        let bw = cc.btlbw_bps() / 1e6;
        prop_assert!(
            (bw - capacity).abs() / capacity < 0.15,
            "btlbw {bw:.2} Mbps vs capacity {capacity:.2} Mbps"
        );
    }

    /// Idle restarts never ratchet the bandwidth estimate upward, no
    /// matter how many occur or how long the gaps are.
    #[test]
    fn bbr_idle_restarts_never_ratchet(
        capacity in 5.0f64..80.0,
        rtt_ms in 5u64..40,
        restarts in 2usize..12,
        gap_ms in 100u64..3000,
    ) {
        let mut cc = BbrLite::new();
        let mut now = ack_epochs(&mut cc, SimTime::ZERO, capacity, rtt_ms, 25);
        let before = cc.btlbw_bps();
        for _ in 0..restarts {
            cc.on_idle_restart(now);
            now += SimDuration::from_millis(gap_ms);
            now = ack_epochs(&mut cc, now, capacity, rtt_ms, 3);
        }
        let after = cc.btlbw_bps();
        prop_assert!(
            after <= before * 1.05,
            "idle restarts ratcheted btlbw {:.2} -> {:.2} Mbps",
            before / 1e6,
            after / 1e6
        );
    }
}

/// Feed `epochs` RTT-length ACK epochs at `capacity_mbps` into `cc`,
/// starting at `start`; returns the time after the last ACK.
fn ack_epochs(
    cc: &mut BbrLite,
    start: SimTime,
    capacity_mbps: f64,
    rtt_ms: u64,
    epochs: usize,
) -> SimTime {
    let rtt = SimDuration::from_millis(rtt_ms);
    let bytes_per_epoch = (capacity_mbps * 1e6 / 8.0 * rtt.as_secs_f64()) as u64;
    let mut now = start;
    for _ in 0..epochs {
        cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
        now += rtt / 2;
        cc.on_ack(now, bytes_per_epoch / 2, Some(rtt), false);
        now += rtt / 2;
    }
    now
}
