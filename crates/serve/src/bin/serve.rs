//! The `serve` daemon: bind, print the address, run until a
//! `POST /shutdown` (or SIGTERM via process kill) stops it.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
//!       [--max-body-bytes N] [--read-timeout-ms N]
//!       [--result-cache-entries N] [--report-cache DIR]
//!       [--report-cache-max-bytes N] [--stream-cache DIR]
//!       [--stream-cache-bytes N]
//! ```

use std::io::Write as _;

use serve::{Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: serve [--addr HOST:PORT] [--workers N] [--queue-depth N]\n\
         \x20            [--max-body-bytes N] [--read-timeout-ms N]\n\
         \x20            [--result-cache-entries N] [--report-cache DIR]\n\
         \x20            [--report-cache-max-bytes N] [--stream-cache DIR]\n\
         \x20            [--stream-cache-bytes N]"
    );
    std::process::exit(2);
}

fn parse_flag<T: std::str::FromStr>(args: &mut std::env::Args, flag: &str) -> T {
    let Some(raw) = args.next() else {
        eprintln!("{flag} needs a value");
        usage();
    };
    let Ok(value) = raw.parse::<T>() else {
        eprintln!("{flag}: cannot parse {raw:?}");
        usage();
    };
    value
}

fn main() {
    let mut cfg = ServerConfig { addr: "127.0.0.1:7077".into(), ..ServerConfig::default() };
    cfg.workers = alloc_locality::default_threads().min(4);
    let mut args = std::env::args();
    let _ = args.next();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => cfg.addr = parse_flag(&mut args, "--addr"),
            "--workers" => cfg.workers = parse_flag(&mut args, "--workers"),
            "--queue-depth" => cfg.queue_depth = parse_flag(&mut args, "--queue-depth"),
            "--max-body-bytes" => cfg.max_body_bytes = parse_flag(&mut args, "--max-body-bytes"),
            "--read-timeout-ms" => cfg.read_timeout_ms = parse_flag(&mut args, "--read-timeout-ms"),
            "--result-cache-entries" => {
                cfg.result_cache_entries = parse_flag(&mut args, "--result-cache-entries");
            }
            "--report-cache" => {
                cfg.report_cache = Some(parse_flag::<String>(&mut args, "--report-cache").into());
            }
            "--report-cache-max-bytes" => {
                cfg.report_cache_max_bytes = parse_flag(&mut args, "--report-cache-max-bytes");
            }
            "--stream-cache" => {
                cfg.stream_cache = Some(parse_flag::<String>(&mut args, "--stream-cache").into());
            }
            "--stream-cache-bytes" => {
                cfg.stream_cache_bytes = Some(parse_flag(&mut args, "--stream-cache-bytes"));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    let workers = cfg.workers;
    let server = match Server::start(cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    // Stdout only reports: a reader that closed it ends the report,
    // never the daemon.
    let mut out = std::io::stdout();
    let _ = writeln!(out, "serve: listening on http://{} with {workers} workers", server.addr());
    let summary = server.wait();
    let _ = writeln!(
        out,
        "serve: drained and stopped ({} completed, {} failed)",
        summary.completed, summary.failed
    );
}
