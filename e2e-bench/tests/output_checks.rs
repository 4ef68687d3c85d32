//! The output checks compare the daemon's results with the library's
//! answer for the same spec; these tests pin that the comparison reads
//! the daemon's documents correctly, so a mismatch in a run means the
//! program, not the check.

use abtest::{halving_search, Experiment, HalvingConfig};
use sammy_e2e_bench::serve_mix::{
    run_spec, search_fingerprint, search_fingerprint_of_doc, search_spec,
};
use sammy_serve::http::http_request;
use sammy_serve::{Daemon, ServeConfig};
use spec::json::{self, Value};
use std::time::{Duration, Instant};

fn wait_done(addr: std::net::SocketAddr, path: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, body) = http_request(addr, "GET", path, None).unwrap();
        assert_eq!(status, 200);
        let state = json::parse(&body).unwrap();
        match state.get("state").and_then(Value::as_str) {
            Some("done") => return,
            Some("failed") | Some("interrupted") => panic!("{path}: {body}"),
            _ => {}
        }
        assert!(Instant::now() < deadline, "{path} did not finish");
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn submit(addr: std::net::SocketAddr, route: &str, doc: &str) -> String {
    let (status, body) = http_request(addr, "POST", route, Some(doc)).unwrap();
    assert_eq!(status, 201, "{body}");
    let id = json::parse(&body)
        .unwrap()
        .get("id")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();
    format!("{route}/{id}")
}

#[test]
fn daemon_results_match_the_library_fingerprints() {
    let mut rs = run_spec(9);
    rs.users_per_arm = 96;
    let mut ss = search_spec(9);
    ss.initial_users = 8;

    let lib_run = Experiment::builder()
        .spec(&rs)
        .threads(1)
        .run_streaming()
        .unwrap();
    let mut halving = HalvingConfig::from_spec(&ss);
    halving.base.threads = 1;
    let lib_search = search_fingerprint(&halving_search(&halving).unwrap());

    let dir = sammy_e2e_bench::out_dir().join(format!("output-checks-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::new(&dir);
    cfg.threads = Some(1);
    let daemon = Daemon::start("127.0.0.1:0", cfg).unwrap();
    let addr = daemon.local_addr();

    let search = submit(addr, "/searches", &ss.to_json().to_string());
    let run = submit(addr, "/runs", &rs.to_json().to_string());
    wait_done(addr, &search);
    wait_done(addr, &run);

    let (_, body) = http_request(addr, "GET", &format!("{search}/result"), None).unwrap();
    let doc = json::parse(&body).unwrap();
    assert_eq!(search_fingerprint_of_doc(&doc), Some(lib_search));

    let (_, body) = http_request(addr, "GET", &format!("{run}/result"), None).unwrap();
    let doc = json::parse(&body).unwrap();
    assert_eq!(
        doc.get("fingerprint").and_then(Value::as_str),
        Some(format!("{:016x}", lib_run.fingerprint()).as_str())
    );
    assert_eq!(doc.get("failures").and_then(Value::as_u64), Some(0));

    daemon.stop();
    let _ = std::fs::remove_dir_all(&dir);
}
