//! The daemon under hostile or careless clients: a connection flood, a
//! body cut off halfway, shutdown under load, cache directories that
//! cannot be written or hold a directory where a report goes, and a
//! closed stdout. In every case each queued job completes, `running`
//! returns to 0 and the daemon stops when asked.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use alloc_locality::{JobSpec, RunReport};
use serve::client::Client;
use serve::{Server, ServerConfig, HANDLERS, PENDING_CONNECTIONS};

const WAIT: Duration = Duration::from_secs(60);

/// A debug-build run of well under a second: one 16K cache, no pager.
fn quick_spec(program: &str, allocator: &str) -> JobSpec {
    JobSpec { cache_kb: vec![16], paging: Some(false), ..JobSpec::cell(program, allocator, 0.002) }
}

fn start(cfg: ServerConfig) -> (Server, Client) {
    let server = Server::start(cfg).expect("bind server");
    let client = Client::new(server.addr());
    (server, client)
}

#[test]
fn a_connection_flood_is_refused_with_structured_503s_and_the_daemon_recovers() {
    let cfg = ServerConfig { workers: 1, read_timeout_ms: 300, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    // Twice what the handlers and the pending queue hold, all idle: each
    // held connection costs a handler its read deadline.
    let capacity = HANDLERS + PENDING_CONNECTIONS;
    let flood: Vec<TcpStream> =
        (0..2 * capacity).map(|_| TcpStream::connect(server.addr()).expect("connect")).collect();
    let mut refused = 0;
    for mut stream in flood {
        stream.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("the daemon closes every connection");
        if raw.is_empty() {
            // Held: closed unanswered at its read deadline.
            continue;
        }
        assert!(raw.starts_with("HTTP/1.1 503"), "{raw}");
        let body = raw.split_once("\r\n\r\n").expect("a head and a body").1;
        let err: serve::ErrorResponse = serde_json::from_str(body).expect("structured body");
        assert_eq!(err.error, "busy", "{body}");
        refused += 1;
    }
    assert!(refused >= capacity, "{refused} of {} refused; at most {capacity} fit", 2 * capacity);

    // Past the deadlines the daemon is whole: it answers, runs a job and
    // counts every refusal.
    assert_eq!(client.healthz().unwrap().status, "ok");
    let job = client.submit(&quick_spec("make", "BSD")).unwrap();
    client.wait_done(&job.id, WAIT).unwrap();
    let health = client.healthz().unwrap();
    assert_eq!((health.running, health.done, health.failed), (0, 1, 0));
    assert_eq!(client.metrics().unwrap().connections_refused, refused as u64);
    let text = client.metrics_prometheus().unwrap();
    assert!(text.contains(&format!("serve_connections_refused_total {refused}")), "{text}");
    drop(server);
}

#[test]
fn clients_that_disconnect_halfway_through_a_body_cost_no_handler() {
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let queued: Vec<String> = [quick_spec("make", "BSD"), quick_spec("gawk", "BSD")]
        .iter()
        .map(|spec| client.submit(spec).unwrap().id)
        .collect();
    let body = serde_json::to_string(&quick_spec("ptc", "BSD")).unwrap();
    // More such clients than there are handlers: each must be let go at
    // its disconnect, not held to the read deadline.
    for _ in 0..2 * HANDLERS {
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        let head =
            format!("POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n", body.len());
        stream.write_all(head.as_bytes()).unwrap();
        stream.write_all(&body.as_bytes()[..body.len() / 2]).unwrap();
        drop(stream);
    }
    let started = Instant::now();
    assert_eq!(client.healthz().unwrap().status, "ok");
    assert!(started.elapsed() < Duration::from_secs(1), "answered after {:?}", started.elapsed());
    for id in &queued {
        client.wait_done(id, WAIT).unwrap();
    }
    let health = client.healthz().unwrap();
    assert_eq!((health.running, health.queued, health.done), (0, 0, 2));
    assert_eq!(client.metrics().unwrap().jobs_submitted, 2, "no half body became a job");
    client.shutdown().unwrap();
    let summary = server.wait();
    assert_eq!((summary.completed, summary.failed, summary.drained), (2, 0, 0));
}

#[test]
fn shutdown_while_jobs_queue_and_clients_poll_drains_every_job() {
    let cfg = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let specs = [
        quick_spec("make", "BSD"),
        quick_spec("gawk", "BSD"),
        quick_spec("ptc", "BSD"),
        quick_spec("espresso", "BSD"),
    ];
    let ids: Vec<String> = specs.iter().map(|spec| client.submit(spec).unwrap().id).collect();
    // Shutdown is posted once every poller has been answered at least
    // once; they keep status and health requests in flight until the
    // daemon stops answering.
    let polling = std::sync::Barrier::new(ids.len() + 1);
    let summary = std::thread::scope(|scope| {
        for id in &ids {
            let client = Client::new(server.addr()).timeout(Duration::from_secs(5));
            let polling = &polling;
            scope.spawn(move || {
                let poll = || {
                    client.request("GET", &format!("/jobs/{id}"), None).is_ok()
                        && client.healthz().is_ok()
                };
                assert!(poll(), "the daemon answers before shutdown");
                polling.wait();
                while poll() {}
            });
        }
        polling.wait();
        client.shutdown().unwrap();
        server.wait()
    });
    // The workers are joined, so nothing is still running: every queued
    // job ran to completion during the drain.
    assert_eq!((summary.completed, summary.failed, summary.drained), (4, 0, 0));
}

#[test]
fn every_way_to_stop_an_idle_daemon_returns_within_a_second() {
    let second = Duration::from_secs(1);
    let (server, client) = start(ServerConfig::default());
    let started = Instant::now();
    client.shutdown().unwrap();
    server.wait();
    assert!(started.elapsed() < second, "POST /shutdown took {:?}", started.elapsed());

    let (server, _) = start(ServerConfig::default());
    let started = Instant::now();
    server.shutdown();
    assert!(started.elapsed() < second, "Server::shutdown took {:?}", started.elapsed());

    let (server, _) = start(ServerConfig::default());
    let started = Instant::now();
    drop(server);
    assert!(started.elapsed() < second, "drop took {:?}", started.elapsed());
}

#[test]
fn unwritable_cache_directories_degrade_persistence_not_jobs() {
    // Directories under a regular file cannot be created, even by root.
    let file = std::env::temp_dir().join(format!("serve-not-a-dir-{}", std::process::id()));
    std::fs::write(&file, b"a regular file").unwrap();
    let cfg = ServerConfig {
        workers: 1,
        report_cache: Some(file.join("reports")),
        report_cache_max_bytes: 1,
        stream_cache: Some(file.join("streams")),
        stream_cache_bytes: Some(1),
        ..ServerConfig::default()
    };
    let (server, client) = start(cfg);
    let (plain, plain_client) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let specs = [quick_spec("make", "FirstFit"), quick_spec("gawk", "QuickFit")];
    for spec in &specs {
        let job = client.submit(spec).unwrap();
        client.wait_done(&job.id, WAIT).expect("the job finishes without its caches");
        let served = RunReport::parse(&client.fetch_report(&job.id).unwrap()).unwrap();
        let base = plain_client.submit(spec).unwrap();
        plain_client.wait_done(&base.id, WAIT).unwrap();
        let cacheless = RunReport::parse(&plain_client.fetch_report(&base.id).unwrap()).unwrap();
        assert_eq!(served.result, cacheless.result, "{}", spec.program);
    }
    assert_eq!(client.healthz().unwrap().status, "ok");
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.jobs_completed, metrics.jobs_failed), (2, 0));
    assert!(!file.join("reports").exists() && !file.join("streams").exists());
    drop(server);
    drop(plain);
    let _ = std::fs::remove_file(&file);
}

#[test]
fn a_report_whose_rename_fails_is_served_and_not_persisted() {
    // A non-empty directory stands where the job's report file goes:
    // loading it finds no report, and the write's rename fails. The job
    // must be computed and served as a daemon without a report cache
    // serves it, and leave no scratch file behind.
    let dir = std::env::temp_dir().join(format!("serve-rename-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = quick_spec("make", "BSD");
    let report_file = format!("{}.json", spec.job_id());
    std::fs::create_dir_all(dir.join(&report_file)).unwrap();
    std::fs::write(dir.join(&report_file).join("occupant"), b"keeps it non-empty").unwrap();
    let cfg =
        ServerConfig { workers: 1, report_cache: Some(dir.clone()), ..ServerConfig::default() };
    let (server, client) = start(cfg);
    let (plain, plain_client) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let job = client.submit(&spec).unwrap();
    client.wait_done(&job.id, WAIT).expect("the job finishes without persisting");
    let served = RunReport::parse(&client.fetch_report(&job.id).unwrap()).unwrap();
    let base = plain_client.submit(&spec).unwrap();
    plain_client.wait_done(&base.id, WAIT).unwrap();
    let cacheless = RunReport::parse(&plain_client.fetch_report(&base.id).unwrap()).unwrap();
    assert_eq!(served.result, cacheless.result);
    let metrics = client.metrics().unwrap();
    assert_eq!((metrics.jobs_completed, metrics.jobs_failed), (1, 0));
    assert_eq!(metrics.report_cache_hits, 0, "a directory is no persisted report");
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(names, [report_file.as_str()], "the scratch file must not outlive the rename");
    assert!(dir.join(&report_file).join("occupant").is_file());
    drop(server);
    drop(plain);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_daemon_serves_on_after_its_stdout_closes() {
    // The daemon reports on stdout just after the bind; a reader that
    // closed it must not take the daemon down: a panic there ends the
    // main thread, and with it the process.
    let port = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().port();
    let addr = format!("127.0.0.1:{port}");
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["--addr", &addr, "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");
    drop(daemon.stdout.take());
    let client = Client::new(addr.parse().unwrap());
    let deadline = Instant::now() + WAIT;
    while client.healthz().is_err() {
        assert!(daemon.try_wait().unwrap().is_none(), "the daemon exited");
        assert!(Instant::now() < deadline, "the daemon never answered");
        std::thread::sleep(Duration::from_millis(20));
    }
    let job = client.submit(&quick_spec("make", "BSD")).unwrap();
    client.wait_done(&job.id, WAIT).expect("the daemon runs jobs with its stdout closed");
    client.shutdown().unwrap();
    let out = daemon.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
}
