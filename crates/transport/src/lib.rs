//! # transport — TCP-like transport with application-informed pacing
//!
//! This crate implements the transport substrate of the Sammy reproduction
//! on top of [`netsim`]:
//!
//! - [`TcpSender`] / [`TcpReceiver`]: a NewReno byte-stream transport with
//!   slow start, AIMD congestion avoidance, duplicate-ACK fast retransmit,
//!   partial-ACK recovery, RTO with exponential backoff, and slow-start
//!   restart after idle.
//! - [`QuicSender`] / [`QuicReceiver`]: a QUIC-style transport — stream
//!   multiplexing over one connection, ACK ranges with selective
//!   retransmission (no head-of-line blocking across streams), connection
//!   flow control — on the same sender core as TCP.
//!   [`TransportSender`] / [`TransportReceiver`] select the protocol per
//!   [`Protocol`] so endpoints are transport-agnostic.
//! - [`SenderCore`]: what both senders share, written once — the
//!   controller, pacer, RTT estimator and t-digest, stats and completion
//!   reports, and the decisions on them: the effective pace
//!   `min(application rate, controller rate)`, RTT sampling, the
//!   retransmission timeout and its backoff, send/loss/timeout
//!   accounting, idle restart and the `pacing-rate-bounds` invariant. The
//!   TCP sender keeps only its sequence space, the QUIC sender only its
//!   streams, packet numbers and ACK ranges.
//! - [`Reno`], [`Cubic`], [`BbrLite`] (BBR with PROBE_RTT, app-limited
//!   sampling, and drain-exit) and [`Ledbat`] congestion controllers
//!   behind the [`CongestionControl`] trait.
//! - [`Pacer`]: token-bucket pacing with a configurable burst size — the
//!   mechanism behind *application-informed pacing* (paper §3.2). Transfers
//!   carry an optional pace rate; the sender releases packets no faster
//!   than that rate, in bursts no larger than the configured size
//!   (the paper's Fig 4 sweeps this burst size from 4 to 40 packets).
//! - [`UdpCbrSource`] / [`UdpSink`]: paced constant-bit-rate datagram flows
//!   with one-way-delay measurement (neighboring traffic of Fig 8a).
//! - [`SenderEndpoint`] / [`ReceiverEndpoint`]: plug-in [`netsim::Endpoint`]
//!   adapters; the sender endpoint answers [`netsim::Payload::Request`]
//!   messages whose `pace_bps` field is the application-informed pacing
//!   header. Its event loop is the only one: [`MultiSenderEndpoint`]
//!   demultiplexes flows over several sender endpoints.
//!
//! Telemetry matches what the paper's production experiments measure:
//! per-connection retransmitted-byte fractions and per-packet RTTs stored
//! in a [`tdigest::TDigest`] (§5.1).

#![warn(missing_docs)]

pub mod bbr;
pub mod cc;
pub mod endpoint;
pub mod multi;
pub mod mux;
pub mod pacing;
pub mod quic;
pub mod receiver;
pub mod rtt;
pub mod scavenger;
pub mod sender;
pub mod sender_core;
pub mod udp;

pub use bbr::BbrLite;
pub use cc::{CcAlgorithm, CongestionControl, Cubic, Reno, INITIAL_CWND_SEGMENTS};
pub use endpoint::{ReceiverEndpoint, SenderEndpoint};
pub use multi::MultiSenderEndpoint;
pub use mux::{Protocol, TransportReceiver, TransportSender};
pub use pacing::Pacer;
pub use quic::{QuicReceiver, QuicSender};
pub use receiver::TcpReceiver;
pub use rtt::RttEstimator;
pub use scavenger::{Ledbat, LedbatConfig};
pub use sender::{CompletedTransfer, SenderStats, TcpConfig, TcpSender};
pub use sender_core::SenderCore;
pub use udp::{UdpCbrSource, UdpSink};
