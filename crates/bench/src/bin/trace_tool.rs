//! `trace-tool`: record, inspect, and replay reference traces.
//!
//! ```text
//! trace-tool record <program> <allocator> <out.alsc> [--scale F]
//! trace-tool info <out.alsc>
//! trace-tool replay <out.alsc> [--cache-kb N]... [--paging] [--three-c] [--victim N]
//! trace-tool export <program> <out.txt> [--scale F]
//! trace-tool run-app <events.txt> <allocator>
//! trace-tool chrome <trace.jsonl> <out.json>
//! trace-tool promlint <exposition.txt>
//! ```
//!
//! Three trace kinds exist: binary **reference** traces (`record`/
//! `info`/`replay`, the stream cache's checksummed ALSC format — what
//! the simulators consume), text **application** traces (`export`/
//! `run-app`, the `workloads::import` format — what the allocators
//! consume), and hierarchical **span**
//! traces (`chrome`, `alloc-locality.trace` v1 JSONL from
//! `repro --trace` or `GET /jobs/{id}/trace` — what `chrome://tracing`
//! and Perfetto open after conversion). `promlint` checks a Prometheus
//! text exposition (e.g. a scraped `GET /metrics?format=prometheus`
//! body) for format violations.
//!
//! `record` captures the full reference stream of one experiment (the
//! PIXIE-trace-file workflow the paper's execution-driven setup
//! replaced); `replay` drives any simulator configuration from the
//! frozen stream, so allocator runs can be archived and re-analyzed
//! without re-simulating the allocator. `info` and `replay` validate the
//! whole file first and then decode its records in bounded chunks
//! straight into the sinks, so a large recording replays in the memory
//! of its file. A file that fails to write or to decode — wrong magic or
//! key, truncation, a checksum mismatch, a reference whose bytes run
//! past 2^64 — is reported in one line and exits 1, before anything is
//! printed.

use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;

use alloc_locality::{AllocChoice, Experiment};
use allocators::AllocatorKind;
use cache_sim::{CacheBank, CacheConfig, ThreeCAnalyzer, VictimCache};
use sim_mem::{encode_stream, open_stream, AccessSink, CountingSink, RefRun};
use vm_sim::StackSim;
use workloads::{Program, Scale};

/// The ALSC content key of every `record`ed file. The engine keys its
/// stream cache by run identity; a recording is keyed by tool instead,
/// with an empty sidecar, so `info` and `replay` accept any recording
/// and nothing else.
const RECORDING_KEY: u64 = u64::from_le_bytes(*b"trc-tool");

fn parse_program(name: &str) -> Option<Program> {
    match name {
        "espresso" => Some(Program::Espresso),
        "gs-small" => Some(Program::GsSmall),
        "gs-medium" => Some(Program::GsMedium),
        "gs" => Some(Program::GsLarge),
        "ptc" => Some(Program::Ptc),
        "gawk" => Some(Program::Gawk),
        "make" => Some(Program::Make),
        _ => None,
    }
}

fn parse_allocator(name: &str) -> Option<AllocChoice> {
    match name {
        "firstfit" => Some(AllocChoice::Paper(AllocatorKind::FirstFit)),
        "bestfit" => Some(AllocChoice::BestFit),
        "gnu-g++" | "gxx" => Some(AllocChoice::Paper(AllocatorKind::GnuGxx)),
        "bsd" => Some(AllocChoice::Paper(AllocatorKind::Bsd)),
        "gnu-local" => Some(AllocChoice::Paper(AllocatorKind::GnuLocal)),
        "quickfit" => Some(AllocChoice::Paper(AllocatorKind::QuickFit)),
        "custom" => Some(AllocChoice::Custom),
        _ => None,
    }
}

fn record(args: &[String]) -> Result<(), String> {
    let [program, allocator, out, rest @ ..] = args else {
        return Err("usage: trace-tool record <program> <allocator> <out.alsc> [--scale F]".into());
    };
    let mut scale = 0.005;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let program = parse_program(program).ok_or(format!("unknown program {program}"))?;
    let choice = parse_allocator(allocator).ok_or(format!("unknown allocator {allocator}"))?;
    let runs = Experiment::new(program, choice)
        .scale(Scale(scale))
        .capture_runs()
        .map_err(|e| e.to_string())?;
    std::fs::write(out, encode_stream(RECORDING_KEY, &[], &runs))
        .map_err(|e| format!("{out}: {e}"))?;
    let mut counting = CountingSink::new();
    counting.record_runs(&runs);
    let s = counting.stats();
    eprintln!(
        "recorded {} references ({} app, {} metadata) to {out}",
        s.total_refs(),
        s.app_refs(),
        s.meta_refs(),
    );
    Ok(())
}

/// Reads a `record`ed file, validates it, and decodes its records into
/// `sink` chunk by chunk; returns the file's size and its run count.
fn read_recording(path: &str, mut sink: impl FnMut(&[RefRun])) -> Result<(u64, u64), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    let view = open_stream(&bytes, RECORDING_KEY).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = 0u64;
    view.decode_chunks(|chunk| {
        runs += chunk.len() as u64;
        sink(chunk);
    })
    .map_err(|e| format!("{path}: {e}"))?;
    Ok((bytes.len() as u64, runs))
}

fn info(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err("usage: trace-tool info <trace.alsc>".into()) };
    let mut counting = CountingSink::new();
    let (bytes, runs) = read_recording(path, |chunk| counting.record_runs(chunk))?;
    let s = counting.stats();
    let n = s.total_refs();
    println!(
        "trace {path}: {n} references in {runs} runs, {bytes} bytes ({:.2} B/ref)",
        bytes as f64 / n.max(1) as f64
    );
    println!(
        "  app:  {} refs ({} reads, {} writes), {} words",
        s.app_refs(),
        s.app_reads,
        s.app_writes,
        s.app_words
    );
    println!(
        "  meta: {} refs ({} reads, {} writes), {} words",
        s.meta_refs(),
        s.meta_reads,
        s.meta_writes,
        s.meta_words
    );
    Ok(())
}

fn replay(args: &[String]) -> Result<(), String> {
    let [path, rest @ ..] = args else {
        return Err("usage: trace-tool replay <trace.alsc> [--cache-kb N]... [--paging] [--three-c] [--victim N]".into());
    };
    let mut cache_kbs: Vec<u32> = Vec::new();
    let mut paging = false;
    let mut three_c = false;
    let mut victim: Option<usize> = None;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-kb" => cache_kbs.push(
                it.next().ok_or("--cache-kb needs a value")?.parse().map_err(|e| format!("{e}"))?,
            ),
            "--paging" => paging = true,
            "--three-c" => three_c = true,
            "--victim" => {
                victim = Some(
                    it.next()
                        .ok_or("--victim needs a value")?
                        .parse()
                        .map_err(|e| format!("{e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if cache_kbs.is_empty() {
        cache_kbs = vec![16, 64];
    }
    if victim == Some(0) {
        return Err("--victim needs at least one entry".into());
    }
    let mut configs = Vec::with_capacity(cache_kbs.len());
    for kb in cache_kbs {
        match kb.checked_mul(1024) {
            Some(size) if size.is_power_of_two() => {
                configs.push(CacheConfig::direct_mapped(size, 32));
            }
            _ => return Err(format!("--cache-kb {kb}: not a power-of-two size in KB")),
        }
    }
    let mut bank = CacheBank::new(configs.iter().copied());
    let mut counting = CountingSink::new();
    let mut pager = paging.then(StackSim::paper);
    let mut analyzer = three_c.then(|| ThreeCAnalyzer::new(configs[0]));
    let mut vcache = victim.map(|entries| VictimCache::new(configs[0], entries));
    read_recording(path, |chunk| {
        bank.record_runs(chunk);
        counting.record_runs(chunk);
        if let Some(pager) = &mut pager {
            pager.record_runs(chunk);
        }
        if let Some(analyzer) = &mut analyzer {
            analyzer.record_runs(chunk);
        }
        if let Some(vcache) = &mut vcache {
            vcache.record_runs(chunk);
        }
    })?;
    println!("replayed {} references from {path}", counting.stats().total_refs());
    for (cfg, stats) in bank.results() {
        println!(
            "  {cfg}: {:.3}% miss rate ({} misses, {} cold)",
            stats.miss_rate() * 100.0,
            stats.misses(),
            stats.cold_misses
        );
    }
    if let Some(pager) = pager {
        let curve = pager.curve();
        println!(
            "  paging: {} distinct pages; working set {} KB",
            pager.distinct_pages(),
            curve.working_set_frames() * 4
        );
    }
    if let Some(analyzer) = analyzer {
        let c = analyzer.classify();
        println!(
            "  3C @ {}: compulsory {} / capacity {} / conflict {} ({:.0}% of replacement misses are conflicts)",
            configs[0],
            c.compulsory,
            c.capacity,
            c.conflict,
            c.conflict_fraction() * 100.0
        );
    }
    if let (Some(entries), Some(vcache)) = (victim, vcache) {
        println!(
            "  victim({entries}) @ {}: effective miss rate {:.3}%, rescue rate {:.0}%",
            configs[0],
            vcache.stats().miss_rate() * 100.0,
            vcache.stats().rescue_rate() * 100.0
        );
    }
    Ok(())
}

fn export(args: &[String]) -> Result<(), String> {
    let [program, out, rest @ ..] = args else {
        return Err("usage: trace-tool export <program> <out.txt> [--scale F]".into());
    };
    let mut scale = 0.005;
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = it
                    .next()
                    .ok_or("--scale needs a value")?
                    .parse()
                    .map_err(|e| format!("bad scale: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let program = parse_program(program).ok_or(format!("unknown program {program}"))?;
    let events: Vec<workloads::AppEvent> = program.spec().events(Scale(scale)).collect();
    let file = File::create(out).map_err(|e| format!("{out}: {e}"))?;
    workloads::import::write_trace(&events, std::io::BufWriter::new(file))
        .map_err(|e| e.to_string())?;
    eprintln!("exported {} events to {out}", events.len());
    Ok(())
}

fn run_app(args: &[String]) -> Result<(), String> {
    let [path, allocator] = args else {
        return Err("usage: trace-tool run-app <events.txt> <allocator>".into());
    };
    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let events = workloads::import::parse_trace(BufReader::new(file)).map_err(|e| e.to_string())?;
    let choice = parse_allocator(allocator).ok_or(format!("unknown allocator {allocator}"))?;
    let r =
        Experiment::with_events(path.clone(), events, choice).run().map_err(|e| e.to_string())?;
    println!(
        "{}: {} allocs / {} frees, peak heap {} KB, {:.2}% of instructions in malloc/free",
        r.allocator,
        r.alloc_stats.mallocs,
        r.alloc_stats.frees,
        r.heap_high_water / 1024,
        r.alloc_fraction() * 100.0
    );
    for (cfg, stats) in &r.cache {
        println!("  {cfg}: {:.3}% miss rate", stats.miss_rate() * 100.0);
    }
    if let Some(curve) = &r.fault_curve {
        println!("  working set {} KB", curve.working_set_frames() * 4);
    }
    Ok(())
}

/// Converts `alloc-locality.trace` v1 JSONL into one Chrome trace-event
/// JSON file that `chrome://tracing` and Perfetto open directly. Every
/// input line is validated first; each trace becomes its own named
/// process in the timeline.
fn chrome(args: &[String]) -> Result<(), String> {
    let [path, out] = args else {
        return Err("usage: trace-tool chrome <trace.jsonl> <out.json>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut reports = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let report =
            obs::TraceReport::parse(line).map_err(|e| format!("{path} line {}: {e}", i + 1))?;
        report.validate().map_err(|e| format!("{path} line {}: {e}", i + 1))?;
        reports.push(report);
    }
    if reports.is_empty() {
        return Err(format!("{path}: no trace lines"));
    }
    let spans: usize = reports.iter().map(|r| r.spans.len()).sum();
    let json = obs::chrome_trace_json(&reports);
    std::fs::write(out, json).map_err(|e| format!("{out}: {e}"))?;
    eprintln!("converted {} trace(s), {spans} span(s) to {out}", reports.len());
    Ok(())
}

/// Lints a Prometheus text exposition (as scraped from
/// `GET /metrics?format=prometheus`).
fn promlint(args: &[String]) -> Result<(), String> {
    let [path] = args else { return Err("usage: trace-tool promlint <exposition.txt>".into()) };
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let samples = obs::prom::lint(&text).map_err(|e| format!("{path}: {e}"))?;
    println!("{path}: ok ({samples} samples)");
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    const SUBCOMMANDS: &str =
        "subcommands: record, info, replay, export, run-app, chrome, promlint";
    let result = match args.split_first() {
        Some((cmd, rest)) => match cmd.as_str() {
            "record" => record(rest),
            "info" => info(rest),
            "replay" => replay(rest),
            "export" => export(rest),
            "run-app" => run_app(rest),
            "chrome" => chrome(rest),
            "promlint" => promlint(rest),
            "--help" | "-h" => Err(SUBCOMMANDS.into()),
            other => Err(format!("unknown subcommand {other}; try --help")),
        },
        None => Err(SUBCOMMANDS.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
