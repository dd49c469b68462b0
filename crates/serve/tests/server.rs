//! End-to-end tests of the daemon over real sockets: robustness
//! (malformed bodies, size caps, backpressure), the content-addressed
//! result cache, graceful drain, and bit-identity of served reports
//! against direct engine runs.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use alloc_locality::{JobSpec, RunReport};
use serve::client::Client;
use serve::{Server, ServerConfig};

/// A spec small enough that a debug-build run finishes in well under a
/// second: one 16K cache, no pager, 0.2% scale.
fn quick_spec(program: &str, allocator: &str) -> JobSpec {
    JobSpec { cache_kb: vec![16], paging: Some(false), ..JobSpec::cell(program, allocator, 0.002) }
}

fn start(cfg: ServerConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("bind server");
    let client = Client::new(server.addr());
    (server, client)
}

const WAIT: Duration = Duration::from_secs(60);

#[test]
fn malformed_json_is_a_400_with_a_structured_body() {
    let (server, client) = start(ServerConfig::default());
    let response = client.request("POST", "/jobs", Some("{not json")).unwrap();
    assert_eq!(response.status, 400);
    let err: serve::ErrorResponse = response.json().unwrap();
    assert_eq!(err.error, "malformed");
    assert!(!err.detail.is_empty());
    drop(server);
}

#[test]
fn deeply_nested_bodies_are_a_400_and_the_daemon_lives() {
    // 10,000 levels once ran the recursive JSON parser off the
    // connection thread's stack, which aborts the whole process.
    let (server, client) = start(ServerConfig::default());
    let nested = "[".repeat(10_000);
    for route in ["/jobs", "/sweeps"] {
        let response = client.request("POST", route, Some(&nested)).unwrap();
        assert_eq!(response.status, 400, "{route}");
        let err: serve::ErrorResponse = response.json().unwrap();
        assert_eq!(err.error, "malformed", "{route}");
        assert!(err.detail.contains("recursion limit"), "{route}: {}", err.detail);
    }
    assert_eq!(client.healthz().unwrap().status, "ok");
    drop(server);
}

#[test]
fn unknown_labels_are_a_400_naming_the_field() {
    let (server, client) = start(ServerConfig::default());
    let bad_program = serde_json::to_string(&JobSpec::cell("tetris", "BSD", 0.002)).unwrap();
    let response = client.request("POST", "/jobs", Some(&bad_program)).unwrap();
    assert_eq!(response.status, 400);
    let err: serve::ErrorResponse = response.json().unwrap();
    assert_eq!(err.error, "invalid_spec");
    assert!(err.detail.contains("unknown program"), "{}", err.detail);

    let bad_alloc = serde_json::to_string(&JobSpec::cell("make", "jemalloc", 0.002)).unwrap();
    let response = client.request("POST", "/jobs", Some(&bad_alloc)).unwrap();
    assert_eq!(response.status, 400);
    let err: serve::ErrorResponse = response.json().unwrap();
    assert!(err.detail.contains("unknown allocator"), "{}", err.detail);
    drop(server);
}

#[test]
fn oversized_bodies_are_a_413_before_the_body_is_read() {
    let cfg = ServerConfig { max_body_bytes: 128, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(4096));
    let response = client.request("POST", "/jobs", Some(&huge)).unwrap();
    assert_eq!(response.status, 413);
    let err: serve::ErrorResponse = response.json().unwrap();
    assert_eq!(err.error, "too_large");
    drop(server);
}

#[test]
fn a_full_queue_answers_429_backpressure() {
    // No workers: nothing drains the queue, so the depth bound is exact.
    let cfg = ServerConfig { workers: 0, queue_depth: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let first = client.submit(&quick_spec("make", "BSD")).unwrap();
    assert_eq!(first.status, "queued");
    assert!(!first.cached);

    let response = client
        .request("POST", "/jobs", Some(&serde_json::to_string(&quick_spec("gawk", "BSD")).unwrap()))
        .unwrap();
    assert_eq!(response.status, 429);
    let err: serve::ErrorResponse = response.json().unwrap();
    assert_eq!(err.error, "queue_full");

    // A duplicate of the queued job is a cache hit, not a new enqueue —
    // it bypasses the full queue.
    let dup = client.submit(&quick_spec("make", "BSD")).unwrap();
    assert!(dup.cached);
    assert_eq!(dup.id, first.id);

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.rejected_backpressure, 1);
    assert_eq!(metrics.cache_hits, 1);
    drop(server);
}

#[test]
fn unknown_ids_and_routes_are_404s() {
    let (server, client) = start(ServerConfig::default());
    let response = client.request("GET", "/jobs/deadbeefdeadbeef", None).unwrap();
    assert_eq!(response.status, 404);
    let response = client.request("GET", "/nope", None).unwrap();
    assert_eq!(response.status, 404);
    let response = client.request("DELETE", "/jobs", None).unwrap();
    assert_eq!(response.status, 405);
    drop(server);
}

#[test]
fn a_raw_garbage_request_line_is_a_400() {
    let (server, _) = start(ServerConfig::default());
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    stream.write_all(b"BLURB\r\n\r\n").unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    drop(server);
}

#[test]
fn a_client_dripping_its_head_is_cut_off_at_the_request_deadline() {
    let cfg = ServerConfig { read_timeout_ms: 500, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut drip = stream.try_clone().unwrap();
    // One header byte every 100 ms for up to 4 s, so no single read
    // waits anywhere near 500 ms; the blank line never comes.
    let dripper = std::thread::spawn(move || {
        for &byte in b"GET /healthz HTTP/1.1\r\nX-Pad: ".iter().chain(&[b'a'; 16]) {
            if drip.write_all(&[byte]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let started = std::time::Instant::now();
    let mut buf = [0u8; 64];
    let read = stream.read(&mut buf);
    let elapsed = started.elapsed();
    // The server answers nothing and closes: end of stream, or a reset
    // when a dripped byte lands after the close.
    match read {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the connection closed, got {other:?}"),
    }
    assert!(elapsed < Duration::from_millis(1500), "closed after {elapsed:?}");
    let _ = stream.shutdown(std::net::Shutdown::Both);
    dripper.join().unwrap();
    assert_eq!(client.healthz().unwrap().status, "ok");
    drop(server);
}

#[test]
fn a_body_arriving_after_its_head_still_parses() {
    let cfg = ServerConfig { read_timeout_ms: 500, ..ServerConfig::default() };
    let (server, _) = start(cfg);
    let body = serde_json::to_string(&quick_spec("make", "BSD")).unwrap();
    let head = format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", body.len());
    // The body alone in the second write, then with its first bytes
    // already in the head's write.
    for split in [0, 5] {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let first = [head.as_bytes(), &body.as_bytes()[..split]].concat();
        stream.write_all(&first).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        stream.write_all(&body.as_bytes()[split..]).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 202") || raw.starts_with("HTTP/1.1 200"),
            "split {split}: {raw}"
        );
    }
    drop(server);
}

#[test]
fn duplicate_specs_hit_the_cache_and_serve_identical_bytes() {
    let (server, client) = start(ServerConfig::default());
    let spec = quick_spec("make", "BSD");
    let first = client.submit(&spec).unwrap();
    assert!(!first.cached);
    client.wait_done(&first.id, WAIT).unwrap();

    // An equivalent spelling (defaults made explicit) maps to the same
    // content address and is answered from the cache instantly.
    let explicit = spec.normalized();
    let second = client.submit(&explicit).unwrap();
    assert!(second.cached);
    assert_eq!(second.id, first.id);
    assert_eq!(second.status, "done");

    let a = client.fetch_report(&first.id).unwrap();
    let b = client.fetch_report(&second.id).unwrap();
    assert_eq!(a, b, "duplicate fetches must serve bit-identical bytes");
    drop(server);
}

#[test]
fn concurrent_duplicates_share_one_job_and_its_bytes() {
    let cfg = ServerConfig { workers: 2, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let specs = [quick_spec("make", "BSD"), quick_spec("gawk", "BSD"), quick_spec("ptc", "BSD")];
    // Four clients submit the same three specs, each in its own order,
    // released together so duplicates race the first submission while
    // it is queued, running or done.
    let orders = [[0, 1, 2], [2, 1, 0], [1, 2, 0], [0, 2, 1]];
    let start_line = std::sync::Barrier::new(orders.len());
    let answers: Vec<(String, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = orders
            .iter()
            .map(|order| {
                let client = Client::new(server.addr());
                let (specs, start_line) = (&specs, &start_line);
                scope.spawn(move || {
                    start_line.wait();
                    let ids: Vec<String> =
                        order.iter().map(|&i| client.submit(&specs[i]).unwrap().id).collect();
                    ids.into_iter()
                        .map(|id| {
                            client.wait_done(&id, WAIT).unwrap();
                            let line = client.fetch_report(&id).unwrap();
                            (id, line)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect()
    });

    let mut first_answer = std::collections::BTreeMap::new();
    for (id, line) in answers {
        let first = first_answer.entry(id.clone()).or_insert_with(|| line.clone());
        assert_eq!(*first, line, "job {id} served different bytes to different clients");
    }
    let mut ids: Vec<String> = specs.iter().map(JobSpec::job_id).collect();
    ids.sort();
    assert!(first_answer.keys().eq(&ids), "answered ids {:?}", first_answer.keys());

    // `submit` holds the state lock from its lookup to its enqueue, so
    // whatever the interleaving each spec runs once: 3 of the 12
    // submissions are fresh and the other 9 are hits.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.jobs_submitted, 3);
    assert_eq!(metrics.jobs_completed, 3);
    assert_eq!(metrics.jobs_failed, 0);
    assert_eq!(metrics.cache_hits, 9);
    drop(server);
}

#[test]
fn served_reports_validate_and_match_a_direct_engine_run() {
    let (server, client) = start(ServerConfig::default());
    let spec = quick_spec("espresso", "GNU local");
    let submitted = client.submit(&spec).unwrap();
    client.wait_done(&submitted.id, WAIT).unwrap();
    let line = client.fetch_report(&submitted.id).unwrap();

    let report = RunReport::parse(&line).expect("served line parses");
    report.validate().expect("served line validates");

    // The server adds nothing to the simulation: the result is
    // bit-identical to the same experiment run by hand.
    let direct = spec.to_experiment().unwrap().run().unwrap();
    assert_eq!(report.result, direct);
    drop(server);
}

#[test]
fn graceful_shutdown_drains_queued_jobs() {
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let specs = [quick_spec("make", "BSD"), quick_spec("gawk", "BSD"), quick_spec("ptc", "BSD")];
    for spec in &specs {
        client.submit(spec).unwrap();
    }
    // Drain starts with jobs still queued behind the single worker.
    client.shutdown().unwrap();
    let summary = server.wait();
    assert_eq!(summary.completed, 3, "drain must finish every queued job");
    assert_eq!(summary.failed, 0);
    assert_eq!(summary.drained, 0);
}

#[test]
fn submissions_during_drain_are_refused_with_503() {
    let cfg = ServerConfig { workers: 0, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    client.submit(&quick_spec("make", "BSD")).unwrap();
    // Flip the flag without closing the listener thread yet: POST
    // /shutdown does exactly that.
    let response = client.request("POST", "/shutdown", None).unwrap();
    assert_eq!(response.status, 200);
    let health: serve::HealthResponse = response.json().unwrap();
    assert!(health.draining, "the shutdown reply is the health body, draining");
    assert_eq!((health.queued, health.workers), (1, 0));
    // The accept loop may take a poll cycle to exit; a submission that
    // does get through must be refused.
    if let Ok(response) = client.request(
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&quick_spec("gawk", "BSD")).unwrap()),
    ) {
        assert_eq!(response.status, 503);
    }
    drop(server);
}

#[test]
fn healthz_and_metrics_report_progress() {
    let (server, client) = start(ServerConfig::default());
    let health = client.healthz().unwrap();
    assert_eq!(health.status, "ok");
    assert!(!health.draining);

    let spec = quick_spec("make", "GNU local");
    let submitted = client.submit(&spec).unwrap();
    client.wait_done(&submitted.id, WAIT).unwrap();
    client.submit(&spec).unwrap();

    let health = client.healthz().unwrap();
    assert_eq!(health.done, 1);

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.jobs_submitted, 1);
    assert_eq!(metrics.jobs_completed, 1);
    assert_eq!(metrics.cache_hits, 1);
    // The merged simulation snapshot carries the engine's counters.
    assert!(metrics.simulation.counters.contains_key("ctx.flush.batches"));
    assert!(metrics.simulation.histograms.contains_key("alloc.search_len"));
    drop(server);
}

/// A fresh per-test scratch directory (cleared on entry).
fn scratch_dir(test: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("serve-it-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn the_result_cache_evicts_lru_and_recomputes_on_resubmission() {
    let cfg = ServerConfig { workers: 1, result_cache_entries: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);

    let first = quick_spec("make", "BSD");
    let second = quick_spec("gawk", "BSD");
    let a = client.submit(&first).unwrap();
    client.wait_done(&a.id, WAIT).unwrap();
    let line_a = client.fetch_report(&a.id).unwrap();

    // Finishing the second job evicts the first (cap is one entry).
    let b = client.submit(&second).unwrap();
    client.wait_done(&b.id, WAIT).unwrap();
    let response = client.request("GET", &format!("/jobs/{}/report", a.id), None).unwrap();
    assert_eq!(response.status, 404, "evicted job must be forgotten");

    // Resubmitting the evicted spec recomputes — same simulation result
    // (timing spans legitimately differ without a stream cache).
    let again = client.submit(&first).unwrap();
    assert!(!again.cached, "evicted spec must be recomputed, not served stale");
    assert_eq!(again.id, a.id, "content address is stable");
    client.wait_done(&again.id, WAIT).unwrap();
    let recomputed = RunReport::parse(&client.fetch_report(&again.id).unwrap()).unwrap();
    assert_eq!(recomputed.result, RunReport::parse(&line_a).unwrap().result);
    drop(server);
}

#[test]
fn persisted_reports_survive_a_server_restart() {
    let report_dir = scratch_dir("restart-reports");
    let stream_dir = scratch_dir("restart-streams");
    let cfg = || ServerConfig {
        workers: 1,
        report_cache: Some(report_dir.clone()),
        stream_cache: Some(stream_dir.clone()),
        ..ServerConfig::default()
    };
    let spec = quick_spec("ptc", "FirstFit");

    let (server, client) = start(cfg());
    let submitted = client.submit(&spec).unwrap();
    client.wait_done(&submitted.id, WAIT).unwrap();
    let line = client.fetch_report(&submitted.id).unwrap();
    drop(server);

    assert!(
        report_dir.join(format!("{}.json", submitted.id)).exists(),
        "finished report must be persisted"
    );

    // A brand-new process (fresh in-memory state) answers the duplicate
    // from disk: 200, cached, same bytes — without re-running anything.
    let (server, client) = start(cfg());
    let resubmitted = client.submit(&spec).unwrap();
    assert!(resubmitted.cached, "restart must answer duplicates from the report cache");
    assert_eq!(resubmitted.status, "done");
    assert_eq!(client.fetch_report(&resubmitted.id).unwrap(), line);
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.report_cache_hits, 1);
    assert_eq!(metrics.jobs_submitted, 0, "nothing was recomputed");
    drop(server);

    let _ = std::fs::remove_dir_all(&report_dir);
    let _ = std::fs::remove_dir_all(&stream_dir);
}

#[test]
fn the_report_cache_is_size_bounded() {
    let report_dir = scratch_dir("bounded-reports");
    // A bound small enough that a single report line overflows it: each
    // finished job evicts its predecessor.
    let cfg = ServerConfig {
        workers: 1,
        report_cache: Some(report_dir.clone()),
        report_cache_max_bytes: 64,
        ..ServerConfig::default()
    };
    let (server, client) = start(cfg);
    let a = client.submit(&quick_spec("make", "BSD")).unwrap();
    client.wait_done(&a.id, WAIT).unwrap();
    let b = client.submit(&quick_spec("gawk", "BSD")).unwrap();
    client.wait_done(&b.id, WAIT).unwrap();

    let files: Vec<_> = std::fs::read_dir(&report_dir)
        .expect("report dir")
        .map(|e| e.expect("entry").file_name().into_string().expect("utf8 name"))
        .collect();
    assert_eq!(files, vec![format!("{}.json", b.id)], "only the newest report survives");
    drop(server);
    let _ = std::fs::remove_dir_all(&report_dir);
}

#[test]
fn a_restart_over_a_report_directory_above_its_bound_evicts_oldest_first() {
    let report_dir = scratch_dir("over-bound-reports");
    let cfg = |report_cache_max_bytes| ServerConfig {
        workers: 1,
        report_cache: Some(report_dir.clone()),
        report_cache_max_bytes,
        ..ServerConfig::default()
    };
    // Four jobs of one cell at nudged scales: report lines of nearly one
    // length.
    let spec = |i: u32| JobSpec { scale: 0.002 + f64::from(i) * 1e-6, ..quick_spec("make", "BSD") };
    let (server, client) = start(cfg(1 << 20));
    let mut files = Vec::new();
    for i in 0..3 {
        let job = client.submit(&spec(i)).unwrap();
        client.wait_done(&job.id, WAIT).unwrap();
        files.push(report_dir.join(format!("{}.json", job.id)));
    }
    drop(server);
    // Age the files deterministically: the first job's oldest.
    let mut sizes = Vec::new();
    for (i, path) in files.iter().enumerate() {
        let age = Duration::from_secs(3000 - 1000 * i as u64);
        let file = std::fs::File::options().write(true).open(path).unwrap();
        file.set_modified(std::time::SystemTime::now() - age).unwrap();
        sizes.push(file.metadata().unwrap().len());
    }

    // A daemon whose bound the directory already passes: its first
    // write evicts the two oldest files, and keeps the third and its own.
    let bound = sizes[1] + sizes[2] + sizes[0] / 2;
    assert!(sizes.iter().sum::<u64>() > bound);
    let (server, client) = start(cfg(bound));
    let job = client.submit(&spec(3)).unwrap();
    client.wait_done(&job.id, WAIT).unwrap();
    let kept = [files[2].clone(), report_dir.join(format!("{}.json", job.id))];
    for (i, path) in files.iter().enumerate() {
        assert_eq!(path.exists(), kept.contains(path), "file {i} of {files:?}");
    }
    assert!(kept[1].exists(), "the file just written is kept");
    drop(server);
    let _ = std::fs::remove_dir_all(&report_dir);
}

#[test]
fn stream_cached_jobs_replay_after_eviction() {
    // With a stream cache, recomputing an evicted job replays the
    // captured stream; the served bytes still match the original.
    let stream_dir = scratch_dir("replay-streams");
    let cfg = ServerConfig {
        workers: 1,
        result_cache_entries: 1,
        stream_cache: Some(stream_dir.clone()),
        ..ServerConfig::default()
    };
    let (server, client) = start(cfg);
    let spec = quick_spec("espresso", "FirstFit");
    let a = client.submit(&spec).unwrap();
    client.wait_done(&a.id, WAIT).unwrap();
    let line = client.fetch_report(&a.id).unwrap();

    let b = client.submit(&quick_spec("make", "FirstFit")).unwrap();
    client.wait_done(&b.id, WAIT).unwrap();

    let again = client.submit(&spec).unwrap();
    assert!(!again.cached);
    client.wait_done(&again.id, WAIT).unwrap();
    let replayed = client.fetch_report(&again.id).unwrap();
    assert_eq!(replayed, line, "replayed job must serve identical bytes");
    // A replayed report carries the *populating* run's metrics verbatim
    // (that is what makes the bytes identical), so the counter to expect
    // is the original miss, not a hit.
    let report: RunReport = RunReport::parse(&replayed).expect("served line parses");
    assert_eq!(report.metrics.counter("stream_cache.miss"), 1);
    assert_eq!(report.metrics.counter("stream_cache.store"), 1);
    drop(server);
    let _ = std::fs::remove_dir_all(&stream_dir);
}

#[test]
fn traces_are_served_and_cached_duplicates_return_the_original() {
    let (server, client) = start(ServerConfig::default());
    let spec = quick_spec("espresso", "FirstFit");
    let first = client.submit(&spec).unwrap();
    let status = client.wait_done(&first.id, WAIT).unwrap();

    // The finished job carries the span-derived telemetry split.
    assert!(status.queue_wait_ns.is_some(), "queue-wait telemetry present");
    assert!(status.execute_ns.unwrap_or(0) > 0, "execute telemetry present and non-zero");

    // The trace is a valid v1 artifact rooted at the serve lifecycle,
    // with the engine's phases nested inside the execute span.
    let line = client.fetch_trace(&first.id).unwrap();
    let trace = obs::TraceReport::parse(&line).expect("trace line parses");
    trace.validate().expect("served trace validates");
    assert_eq!(trace.trace_id, first.id, "trace id is the job id");
    let roots: Vec<_> = trace.roots().collect();
    assert_eq!(roots.len(), 1, "one serve.job root");
    assert_eq!(roots[0].name, "serve.job");
    for name in ["serve.cache_lookup", "serve.queue_wait", "serve.execute", "serve.respond"] {
        let span = trace.span(name).unwrap_or_else(|| panic!("missing span {name}"));
        assert_eq!(span.parent, Some(roots[0].id), "{name} nests under serve.job");
    }
    let execute = trace.span("serve.execute").unwrap();
    let drive = trace.span("engine.drive").expect("engine spans nested in the serve trace");
    assert_eq!(drive.parent, Some(execute.id), "engine.drive nests under serve.execute");

    // A cached duplicate answers with the original job's trace, byte
    // for byte — the duplicate never executed, so it has no trace of
    // its own.
    let dup = client.submit(&spec.normalized()).unwrap();
    assert!(dup.cached);
    let dup_line = client.fetch_trace(&dup.id).unwrap();
    assert_eq!(dup_line, line, "cached duplicate must serve the original trace bytes");
    drop(server);
}

#[test]
fn prometheus_exposition_lints_clean_and_reflects_load() {
    let (server, client) = start(ServerConfig::default());
    let submitted = client.submit(&quick_spec("gawk", "BSD")).unwrap();
    client.wait_done(&submitted.id, WAIT).unwrap();
    client.fetch_report(&submitted.id).unwrap();

    let text = client.metrics_prometheus().unwrap();
    let samples = obs::prom::lint(&text).unwrap_or_else(|e| panic!("exposition lints: {e}"));
    assert!(samples > 0, "exposition is non-empty");
    assert!(text.contains("serve_jobs_completed_total 1"), "completed counter exported:\n{text}");
    assert!(
        text.contains("endpoint=\"POST /jobs\""),
        "per-endpoint latency series labelled:\n{text}"
    );
    assert!(
        text.contains("# TYPE serve_request_duration_us histogram"),
        "latency histogram typed:\n{text}"
    );
    assert!(text.contains("sim_"), "simulation metrics aggregated under the sim prefix:\n{text}");

    // The JSON endpoint still answers, and now carries the endpoint
    // histograms alongside the counters.
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.jobs_completed, 1);
    assert!(metrics.endpoints.contains_key("POST /jobs"), "{:?}", metrics.endpoints.keys());
    drop(server);
}

/// A four-point sweep small enough for a debug-build test: two FirstFit
/// split thresholds and two QuickFit fast-list bounds over the
/// `quick_spec` workload cell.
fn quick_sweep() -> explore::SweepSpec {
    explore::SweepSpec {
        cache_kb: vec![16],
        paging: Some(false),
        ..explore::SweepSpec::over(
            "espresso",
            0.002,
            vec![
                explore::GridSpec {
                    split_threshold: vec![8, 24],
                    ..explore::GridSpec::baseline("FirstFit")
                },
                explore::GridSpec {
                    fast_max: vec![16, 64],
                    ..explore::GridSpec::baseline("QuickFit")
                },
            ],
        )
    }
}

#[test]
fn served_sweeps_match_the_offline_executor_byte_for_byte() {
    let (server, client) = start(ServerConfig::default());
    // Custom's size profile comes from the spec on every path, so a
    // Custom point is an ordinary job too.
    let custom = explore::SweepSpec {
        grids: vec![explore::GridSpec::baseline("Custom"), explore::GridSpec::baseline("BSD")],
        ..quick_sweep()
    };
    for (spec, points) in [(quick_sweep(), 4), (custom, 2)] {
        let submitted = client.submit_sweep(&spec).unwrap();
        assert_eq!(submitted.id, spec.sweep_id());
        assert_eq!(submitted.points, points);
        assert_eq!(submitted.fresh, points);
        assert!(!submitted.cached);

        let status = client.wait_sweep_done(&submitted.id, WAIT).unwrap();
        assert_eq!((status.done, status.failed), (points, 0));

        // The daemon's assembled artifact is exactly what the offline
        // shared-trace executor emits for the same spec.
        let served = client.fetch_sweep_report(&submitted.id).unwrap();
        let offline = explore::run_sweep(&spec, 2, |_, _| {}).expect("offline sweep");
        assert_eq!(served, offline.to_jsonl(), "served sweep diverged from the offline executor");
        let parsed = explore::SweepReport::parse(&served).expect("served sweep parses");
        parsed.validate().expect("served sweep validates");

        // Each point is an ordinary job whose report the sweep embeds
        // verbatim, modulo the zeroed span wall-times.
        for point in &parsed.points {
            let direct = client.fetch_report(&point.point_id).unwrap();
            let mut direct = RunReport::parse(&direct).expect("point report parses");
            explore::report::normalize_report(&mut direct);
            assert_eq!(point.report.to_jsonl_line(), direct.to_jsonl_line(), "{}", point.allocator);
        }

        // Resubmitting is a cache hit: same id, nothing fresh.
        let again = client.submit_sweep(&spec).unwrap();
        assert_eq!(again.id, submitted.id);
        assert!(again.cached);
        assert_eq!(again.fresh, 0);
        assert_eq!(again.status, "done");
        assert_eq!(client.fetch_sweep_report(&again.id).unwrap(), served);
    }

    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.sweeps_submitted, 2);
    drop(server);
}

/// A one-point sweep of the `quick_spec` cell under QuickFit.
fn one_point_sweep(fast_max: u32) -> explore::SweepSpec {
    explore::SweepSpec {
        grids: vec![explore::GridSpec {
            fast_max: vec![fast_max],
            ..explore::GridSpec::baseline("QuickFit")
        }],
        ..quick_sweep()
    }
}

#[test]
fn the_sweep_table_is_bounded_by_the_result_cache() {
    let cfg = ServerConfig { workers: 1, result_cache_entries: 2, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let specs = [one_point_sweep(16), one_point_sweep(48), one_point_sweep(64)];
    let mut ids = Vec::new();
    for spec in &specs {
        let submitted = client.submit_sweep(spec).unwrap();
        client.wait_sweep_done(&submitted.id, WAIT).unwrap();
        client.fetch_sweep_report(&submitted.id).unwrap();
        ids.push(submitted.id);
    }
    // Registering the third dropped the least recently used, the first.
    for path in [format!("/sweeps/{}", ids[0]), format!("/sweeps/{}/report", ids[0])] {
        let response = client.request("GET", &path, None).unwrap();
        assert_eq!(response.status, 404, "{path}: {}", response.body);
        let err: serve::ErrorResponse = response.json().unwrap();
        assert_eq!(err.error, "not_found");
    }
    for id in &ids[1..] {
        assert_eq!(client.sweep_status(id).unwrap().status, "done");
    }
    // Resubmitting registers it again, and it completes.
    let again = client.submit_sweep(&specs[0]).unwrap();
    assert_eq!(again.id, ids[0]);
    assert!(!again.cached, "a dropped sweep is registered anew");
    client.wait_sweep_done(&again.id, WAIT).unwrap();
    let report = client.fetch_sweep_report(&again.id).unwrap();
    explore::SweepReport::parse(&report).unwrap().validate().expect("resubmitted sweep validates");
    assert_eq!(client.metrics().unwrap().sweeps_submitted, 4);
    drop(server);
}

#[test]
fn a_sweep_with_a_queued_point_is_never_dropped() {
    // No workers: every point stays queued, so no sweep may go, however
    // far registrations pass the bound.
    let cfg = ServerConfig { workers: 0, result_cache_entries: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let ids: Vec<String> = [16, 48, 64]
        .map(|fast_max| client.submit_sweep(&one_point_sweep(fast_max)).unwrap().id)
        .into();
    for id in &ids {
        let status = client.sweep_status(id).unwrap();
        assert_eq!((status.status.as_str(), status.queued), ("running", 1), "{id}");
    }
    drop(server);
}

#[test]
fn sweep_backpressure_refuses_the_whole_batch() {
    let cfg = ServerConfig { workers: 0, queue_depth: 2, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let err = client.submit_sweep(&quick_sweep()).unwrap_err();
    assert!(err.to_string().contains("429"), "four fresh points exceed two slots: {err}");
    // Nothing was partially enqueued.
    let health = client.healthz().unwrap();
    assert_eq!(health.queued, 0, "the refused batch left no points behind");
    drop(server);
}

#[test]
fn a_refused_sweep_counts_no_cache_hits() {
    let report_dir = scratch_dir("refused-sweep-reports");
    let cfg = |workers, queue_depth| ServerConfig {
        workers,
        queue_depth,
        report_cache: Some(report_dir.clone()),
        ..ServerConfig::default()
    };
    // Persist the FirstFit half of the sweep's four points.
    let sweep = quick_sweep();
    let (server, client) = start(cfg(1, 64));
    let first_fit = explore::SweepSpec { grids: sweep.grids[..1].to_vec(), ..sweep.clone() };
    let done = client.submit_sweep(&first_fit).unwrap();
    client.wait_sweep_done(&done.id, WAIT).unwrap();
    drop(server);

    // A restarted daemon whose one queue slot holds a QuickFit point:
    // the sweep finds two points on disk, one in the job table and one
    // fresh, and every retry is refused.
    let (server, client) = start(cfg(0, 1));
    let queued = sweep.normalized().points().pop().expect("a QuickFit point");
    assert!(!client.submit(&queued).unwrap().cached);
    for _ in 0..3 {
        let err = client.submit_sweep(&sweep).unwrap_err();
        assert!(err.to_string().contains("429"), "{err}");
    }
    let metrics = client.metrics().unwrap();
    assert_eq!(metrics.rejected_backpressure, 3);
    assert_eq!(
        (metrics.cache_hits, metrics.report_cache_hits),
        (0, 0),
        "a refused sweep answered nothing"
    );
    drop(server);

    // With room in the queue the same sweep is accepted, and its three
    // answered points count once.
    let (server, client) = start(cfg(0, 2));
    assert!(!client.submit(&queued).unwrap().cached);
    let accepted = client.submit_sweep(&sweep).unwrap();
    assert_eq!(accepted.fresh, 1);
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.cache_hits, metrics.report_cache_hits), (3, 2));
    drop(server);
    let _ = std::fs::remove_dir_all(&report_dir);
}

#[test]
fn sweep_points_are_shared_with_direct_jobs() {
    let (server, client) = start(ServerConfig::default());
    // The QuickFit default point, submitted directly first.
    let direct = client.submit(&quick_spec("espresso", "QuickFit")).unwrap();
    client.wait_done(&direct.id, WAIT).unwrap();

    // `fast_max: 32` is the family default, so that grid slot
    // normalizes to the point just computed.
    let sweep = quick_sweep();
    let sweep = explore::SweepSpec {
        grids: vec![explore::GridSpec {
            fast_max: vec![16, 32],
            ..explore::GridSpec::baseline("QuickFit")
        }],
        ..sweep
    };
    let submitted = client.submit_sweep(&sweep).unwrap();
    assert_eq!(submitted.points, 2);
    assert_eq!(submitted.fresh, 1, "the default point was already cached");
    client.wait_sweep_done(&submitted.id, WAIT).unwrap();
    let report = client.fetch_sweep_report(&submitted.id).unwrap();
    explore::SweepReport::parse(&report).unwrap().validate().expect("shared-point sweep validates");
    drop(server);
}

#[test]
fn a_resubmitted_sweep_keeps_its_finished_points() {
    // Three entries: the sweep's two points and one direct job.
    let cfg = ServerConfig { workers: 1, result_cache_entries: 3, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let sweep = explore::SweepSpec {
        grids: vec![explore::GridSpec {
            fast_max: vec![16, 64],
            ..explore::GridSpec::baseline("QuickFit")
        }],
        ..quick_sweep()
    };
    let submitted = client.submit_sweep(&sweep).unwrap();
    client.wait_sweep_done(&submitted.id, WAIT).unwrap();
    let direct = client.submit(&quick_spec("make", "BSD")).unwrap();
    client.wait_done(&direct.id, WAIT).unwrap();

    // Resubmitting answers both points from the table and makes them
    // the most recently used, so the next job evicts the direct one.
    let again = client.submit_sweep(&sweep).unwrap();
    assert_eq!((again.status.as_str(), again.fresh, again.cached), ("done", 0, true));
    let next = client.submit(&quick_spec("gawk", "BSD")).unwrap();
    client.wait_done(&next.id, WAIT).unwrap();
    let response =
        client.request("GET", &format!("/sweeps/{}/report", submitted.id), None).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let response = client.request("GET", &format!("/jobs/{}", direct.id), None).unwrap();
    assert_eq!(response.status, 404, "the least recently used entry went");
    drop(server);
}

#[test]
fn sweep_errors_are_structured() {
    let cfg = ServerConfig { workers: 0, ..ServerConfig::default() };
    let (server, client) = start(cfg);

    // Unknown ids are 404s on both sweep routes.
    for path in ["/sweeps/feedfacefeedface", "/sweeps/feedfacefeedface/report"] {
        let response = client.request("GET", path, None).unwrap();
        assert_eq!(response.status, 404, "{path}: {}", response.body);
    }

    // A sweep over an unknown allocator family is a 400 naming it.
    let response = client
        .request(
            "POST",
            "/sweeps",
            Some(r#"{"program":"espresso","grids":[{"allocator":"SlabFit"}]}"#),
        )
        .unwrap();
    assert_eq!(response.status, 400, "{}", response.body);
    assert!(response.body.contains("SlabFit"), "{}", response.body);

    // With no workers the points never finish: the report is a 409.
    let submitted = client.submit_sweep(&quick_sweep()).unwrap();
    let response =
        client.request("GET", &format!("/sweeps/{}/report", submitted.id), None).unwrap();
    assert_eq!(response.status, 409, "{}", response.body);
    assert!(response.body.contains("not_done"), "{}", response.body);
    drop(server);
}
