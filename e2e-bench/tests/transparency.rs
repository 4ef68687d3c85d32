//! The traced run must measure the same program as the untraced one:
//! every wrapper and replica the benchmark uses to see inside a layer
//! has to leave the outputs bit-identical.

use abtest::{population_config_from_spec, run_user, user_at, Arm, ExperimentConfig};
use netsim::SimDuration;
use sammy_bench::lab::{single_flow, LabArm};
use sammy_bench::matrix::{matrix_csv_rows, MatrixCell, SUBSTRATES};
use sammy_bench::shared::shared_sessions;
use sammy_e2e_bench::ab_stream::replica_user;
use sammy_e2e_bench::lab_packet::{
    build_shared, build_single_flow, lab_config, run_shared, run_single_flow, shared_config,
};
use sammy_e2e_bench::trace::{self, site};

fn library_row(sub_label: &str, arm: LabArm, run_secs: u64) -> String {
    let sub = SUBSTRATES.iter().find(|s| s.label == sub_label).unwrap();
    let cfg = sammy_bench::lab::LabConfig {
        cc: sub.cc,
        transport: sub.transport,
        run_for: SimDuration::from_secs(run_secs),
        ..lab_config(3)
    };
    let r = single_flow(arm, &cfg);
    matrix_csv_rows(&[MatrixCell {
        substrate: sub.label,
        transport: sub.transport,
        cc: sub.cc,
        arm,
        chunk_tput_mbps: r.chunk_throughput_mbps,
        median_rtt_ms: r.median_rtt_ms,
        retx_fraction: r.retx_fraction,
        play_delay_s: r.play_delay_s,
        rebuffers: r.rebuffers,
        peak_queue_kb: r.max_queue_bytes as f64 / 1e3,
    }])
    .remove(0)
}

/// A matrix cell rebuilt from `Dumbbell::build` + `lab::install_video`,
/// with the endpoint and queue wrappers installed, gives the library's
/// CSV row and the bare rebuild's event count, on TCP and on QUIC.
#[test]
fn wrapped_matrix_cell_matches_single_flow() {
    for (label, arm) in [("reno", LabArm::Control), ("quic", LabArm::Sammy)] {
        let sub = *SUBSTRATES.iter().find(|s| s.label == label).unwrap();
        let base = sammy_bench::lab::LabConfig {
            run_for: SimDuration::from_secs(20),
            ..lab_config(3)
        };
        let (bare, bare_counts) = run_single_flow(build_single_flow(sub, arm, &base, false));
        trace::reset(true);
        let (wrapped, wrapped_counts) = run_single_flow(build_single_flow(sub, arm, &base, true));
        let acc = trace::snapshot();
        trace::reset(false);

        let expect = library_row(label, arm, 20);
        assert_eq!(matrix_csv_rows(&[bare])[0], expect, "{label}: bare rebuild");
        assert_eq!(
            matrix_csv_rows(&[wrapped])[0],
            expect,
            "{label}: wrapped rebuild"
        );
        assert_eq!(bare_counts, wrapped_counts, "{label}: events/packets");
        assert!(bare_counts.events > 10_000, "{label}: the cell ran");
        let sender = if label == "quic" {
            site::QUIC
        } else {
            site::TCP
        };
        assert!(acc[sender].calls > 0 && acc[site::VIDEO_CLIENT].calls > 0);
        assert!(acc[site::ENQ_DROPTAIL].calls > 0 && acc[site::DEQ_DROPTAIL].calls > 0);
    }
}

/// A shared-bottleneck cell rebuilt with wrapped origin, clients and
/// core queue gives exactly `shared::shared_sessions`'s result.
#[test]
fn wrapped_shared_cell_matches_shared_sessions() {
    for label in ["drr", "codel"] {
        let cfg = sammy_bench::shared::SharedLabConfig {
            sessions: 2,
            run_for: SimDuration::from_secs(15),
            ..shared_config(5, label)
        };
        let expect = format!("{:?}", shared_sessions(LabArm::Control, &cfg));
        trace::reset(true);
        let (wrapped, _) = run_shared(build_shared(LabArm::Control, &cfg, label, true));
        let acc = trace::snapshot();
        trace::reset(false);
        assert_eq!(format!("{wrapped:?}"), expect, "{label}");
        let (enq, deq) = sammy_e2e_bench::wrap::queue_sites(label);
        assert!(
            acc[enq].calls > 0 && acc[deq].calls > 0,
            "{label} queue traced"
        );
    }
}

/// Fluid sessions run through the `Abr` wrapper (and the replica of
/// `run_user` around them) give bit-identical session records.
#[test]
fn wrapped_fluid_sessions_are_bit_identical() {
    let spec = spec::ExperimentSpec {
        light_population: true,
        pre_sessions: 2,
        sessions_per_user: 2,
        seed: 11,
        ..sammy_e2e_bench::ab_stream::spec(11, 4)
    };
    let cfg = ExperimentConfig::from(&spec);
    let pop = population_config_from_spec(&spec);
    for i in 0..4 {
        let user = user_at(&pop, i, spec.seed);
        for arm in [Arm::Production, Arm::Sammy { c0: 3.2, c1: 2.8 }] {
            let expect = run_user(&user, arm, &cfg);
            assert_eq!(
                replica_user(&user, arm, &cfg, false),
                expect,
                "bare replica"
            );
            trace::reset(true);
            let traced = replica_user(&user, arm, &cfg, true);
            let acc = trace::snapshot();
            trace::reset(false);
            assert_eq!(traced, expect, "wrapped ABR");
            let chunks: usize = traced.iter().map(|r| r.outcome.chunks).sum();
            assert!(
                acc[site::ABR_SELECT].calls as usize >= chunks,
                "every decision traced"
            );
        }
    }
}
