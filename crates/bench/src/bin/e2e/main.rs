//! `e2e` — one wire-to-wire benchmark of the maritime pipeline: AIVDM
//! bytes in, fused / recognised / stored, framed answers and pushed
//! events out of a real socket; four named workloads, a handful of
//! end-to-end metrics with bounds, and a per-layer cost ledger.
//!
//! ```text
//! e2e run [--workload W|all] [--size smoke|full] [--seed N] [--seconds S]
//!         [--trace 0|1|both] [--commit C]
//! e2e compare A.jsonl B.jsonl
//! e2e manifest            # the text of BENCHMARK.json
//! ```
//!
//! `run` prints two JSON lines per (workload, trace mode): a record
//! with every metric's unit, direction, sample count and the run's
//! metadata, then the short result object `BENCHMARK.json`'s contract
//! asks for (always the last line). Ledgers and progress go to stderr.
//! See `README.md` beside this file.

mod catalog;
mod client;
mod compare;
mod feed;
mod ingest;
mod json;
mod query;
mod requests;
mod trace;
mod workloads;

use catalog::{median, percentile, MetricDef, WORKLOADS};
use feed::{Size, DEFAULT_SEED, FULL, PINNED, SMOKE};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workloads::{Inputs, PassOut};

/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 3;

/// Which passes a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Trace {
    /// Untraced passes: the end-to-end metrics.
    Off,
    /// Untraced and traced passes in turn: the per-layer metrics.
    On,
}

/// The options of `e2e run`.
#[derive(Debug, Clone)]
struct Options {
    /// One workload, or all of them (`None`).
    workload: Option<&'static str>,
    size: &'static Size,
    seed: u64,
    seconds: Option<f64>,
    traces: Vec<Trace>,
    commit: String,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e run [--workload {}|all] [--size smoke|full] [--seed N] [--seconds S] [--trace 0|1|both] [--commit C]\n       e2e compare A.jsonl B.jsonl\n       e2e manifest",
        WORKLOADS.map(|(name, _)| name).join("|")
    );
    ExitCode::from(2)
}

fn parse_run(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        size: &FULL,
        seed: DEFAULT_SEED,
        seconds: None,
        traces: vec![Trace::Off, Trace::On],
        commit: "unknown".to_owned(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => opts.workload = None,
            "--workload" => {
                let known = WORKLOADS.iter().map(|(name, _)| *name).find(|name| name == value);
                opts.workload = Some(known.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                opts.seconds = Some(s.max(0.0));
            }
            "--commit" => opts.commit = value.clone(),
            "--size" => {
                opts.size = match value.as_str() {
                    "smoke" => &SMOKE,
                    "full" => &FULL,
                    _ => return Err(format!("unknown size {value}")),
                }
            }
            "--trace" => {
                opts.traces = match value.as_str() {
                    "0" => vec![Trace::Off],
                    "1" => vec![Trace::On],
                    "both" => vec![Trace::Off, Trace::On],
                    _ => return Err(format!("bad trace mode {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", catalog::benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") if args.len() == 3 => match compare::compare(&args[1], &args[2]) {
            Ok((report, worse)) => {
                print!("{report}");
                ExitCode::from(u8::from(worse))
            }
            Err(e) => {
                eprintln!("e2e compare: {e}");
                ExitCode::from(2)
            }
        },
        Some("run") => match parse_run(&args[1..]) {
            Ok(opts) => run(&opts, &args[1..]),
            Err(e) => {
                eprintln!("e2e run: {e}");
                usage()
            }
        },
        _ => usage(),
    }
}

fn run(opts: &Options, raw: &[String]) -> ExitCode {
    if opts.size.tag == "full" && cfg!(debug_assertions) {
        eprintln!("e2e run: --size full refuses a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    let Some(workload) = opts.workload else {
        // One process per workload, so each one's peak memory is its own.
        return run_each_in_a_child(raw);
    };
    match run_workload(workload, opts) {
        Ok(records) => {
            let mut ok = true;
            for record in &records {
                println!("{}", record.line);
                println!("{}", record.contract);
                ok &= record.correct;
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                eprintln!("e2e run: {workload}: output checks failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2e run: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_each_in_a_child(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("e2e run: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut forwarded: Vec<String> = Vec::new();
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if arg == "--workload" {
            it.next();
        } else {
            forwarded.push(arg.clone());
        }
    }
    let mut ok = true;
    for (name, _) in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(["--workload", name])
            .args(&forwarded)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One finished (workload, trace mode) run.
struct Record {
    /// The full record line.
    line: String,
    /// The contract's result object.
    contract: String,
    /// Whether every output check held.
    correct: bool,
}

fn run_workload(workload: &'static str, opts: &Options) -> Result<Vec<Record>, String> {
    // The pins are of the default seed's inputs, so those are generated
    // (off every clock) whatever seed is measured: drift in `mda-sim` or
    // in the request lists fails the very runs that produce numbers.
    let fingerprint = workloads::inputs(workload, opts.size, DEFAULT_SEED).fingerprint;
    let pinned = PINNED.iter().find(|(w, tag, _)| *w == workload && *tag == opts.size.tag);
    if let Some((_, _, pinned)) = pinned.filter(|(_, _, p)| *p != fingerprint) {
        return Err(format!(
            "workload changed: {workload}/{} at seed {DEFAULT_SEED} fingerprints {fingerprint} but {pinned} is pinned (feed bytes-arrival metadata-requests)",
            opts.size.tag
        ));
    }
    // Set-up, several times over: generate the inputs from the seed,
    // and do the program's own construction once (pipeline, server,
    // connection). The last set of inputs is the one measured.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let made = workloads::inputs(workload, opts.size, opts.seed);
        workloads::probe(&made)?;
        setup_s.push(t.elapsed().as_secs_f64());
        inputs = Some(made);
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let seconds = opts.seconds.unwrap_or(if opts.size.tag == "full" {
        catalog::RUN_SECONDS as f64
    } else {
        1.0
    });
    let mut records = Vec::new();
    for trace in &opts.traces {
        let passes = run_passes(&inputs, *trace, seconds)?;
        records.push(record(&inputs, opts, *trace, seconds, &setup_s, &passes));
    }
    Ok(records)
}

/// The passes of one run: untraced ones, and (in a traced run) traced
/// ones in turn with them.
struct Passes {
    plain: Vec<PassOut>,
    traced: Vec<PassOut>,
}

fn run_passes(inputs: &Inputs, trace: Trace, seconds: f64) -> Result<Passes, String> {
    let mut passes = Passes { plain: Vec::new(), traced: Vec::new() };
    let start = Instant::now();
    let mut longest = 0.0f64;
    loop {
        let traced = trace == Trace::On && passes.plain.len() > passes.traced.len();
        let mut tracer = Tracer::new(traced);
        let t = Instant::now();
        let out = match inputs.workload {
            "feed-durable" => workloads::feed_durable(inputs, &mut tracer),
            "serve-live" => workloads::serve_live(inputs, &mut tracer),
            _ => workloads::replay_and_serve(inputs, &mut tracer),
        }?;
        longest = longest.max(t.elapsed().as_secs_f64());
        if traced {
            passes.traced.push(out);
        } else {
            passes.plain.push(out);
        }
        // Another pass only if it fits: the run measures for
        // `seconds`, in whole passes.
        let enough = trace == Trace::Off || passes.traced.len() == passes.plain.len();
        if enough && start.elapsed().as_secs_f64() + longest > seconds {
            return Ok(passes);
        }
    }
}

/// A metric's samples over the passes of a run, and the observations
/// behind them.
type Samples = (Vec<f64>, u64);

fn samples(passes: &[PassOut]) -> BTreeMap<String, Samples> {
    let mut by_name: BTreeMap<String, Samples> = BTreeMap::new();
    for pass in passes {
        for (name, value, n) in &pass.values {
            let slot = by_name.entry(name.clone()).or_default();
            slot.0.push(*value);
            slot.1 += n;
        }
    }
    by_name
}

/// The value a run reports for an end-to-end metric: the decile of its
/// per-pass samples on the good side — the lowest tenth of a time, the
/// highest tenth of a rate (nearest rank; of fewer than six passes, the
/// best).
///
/// Every sample is a whole pass: the same feed, every phase of it, the
/// same requests, and a p99 over all of a pass's round trips. What
/// separates two samples of a run is therefore interference from
/// outside the program, and that only ever slows a sample down. On the
/// shared 2-core box this was pinned on, neighbours took 10–40 % off
/// passes in bursts of up to minutes, and the median over a run's
/// passes moved with them. The record carries that median beside the
/// value, so the two can be held against each other.
fn good_side(def: &MetricDef, values: &[f64]) -> f64 {
    match def.better {
        catalog::Better::Higher => percentile(values, 0.9),
        catalog::Better::Lower => percentile(values, 0.1),
    }
}

fn record(
    inputs: &Inputs,
    opts: &Options,
    trace: Trace,
    seconds: f64,
    setup_s: &[f64],
    passes: &Passes,
) -> Record {
    let all = || passes.plain.iter().chain(&passes.traced);
    let mut problems: Vec<String> = all().flat_map(|p| p.problems.iter().cloned()).collect();
    let digest = all().next().map_or(0, |p| p.digest);
    if all().any(|p| p.digest != digest) {
        problems.push("result digests differ between passes (traced or not)".to_owned());
    }
    let attempted: u64 = all().map(|p| p.attempted).sum();
    let failed: u64 = all().map(|p| p.failed).sum();

    let one = |value: f64, n: u64| (vec![value], n);
    let (defs, mut values): (Vec<MetricDef>, _) = match trace {
        Trace::Off => {
            let mut values = samples(&passes.plain);
            values.insert("setup_s".to_owned(), (setup_s.to_vec(), setup_s.len() as u64));
            (catalog::end_to_end(), values)
        }
        Trace::On => {
            let mut values = samples(&passes.traced);
            let work = |set: &[PassOut], queries: f64| {
                let per_pass: Vec<f64> =
                    set.iter().map(|p| p.ingest_busy_s + p.mean_rtt_s * queries).collect();
                median(&per_pass)
            };
            let queries =
                median(&passes.traced.iter().map(|p| p.queries as f64).collect::<Vec<_>>());
            let (plain, traced) = (work(&passes.plain, queries), work(&passes.traced, queries));
            let overhead = if plain > 0.0 { traced / plain - 1.0 } else { 0.0 };
            values.insert(
                "gen.trace_overhead_share".to_owned(),
                one(overhead, passes.traced.len() as u64),
            );
            values.insert(
                "gen.failed_share".to_owned(),
                one(failed as f64 / attempted.max(1) as f64, attempted),
            );
            values.insert("gen.peak_rss_mb".to_owned(), one(peak_rss_mb(), 1));
            (catalog::per_layer(), values)
        }
    };

    let mut rich = String::new();
    let mut short = String::new();
    for def in &defs {
        // A layer metric the workload does not exercise reads 0; an
        // end-to-end metric must be there.
        let (samples, n) = values.remove(&def.name).unwrap_or_else(|| {
            if def.bound.is_some() {
                problems.push(format!("end-to-end metric {} was not measured", def.name));
            }
            (Vec::new(), 0)
        });
        // Layer metrics and set-up time are medians; a bounded metric
        // of the passes is their good side, with the median beside it.
        let middle = median(&samples);
        let value = if def.bound.is_some() && def.name != "setup_s" {
            good_side(def, &samples)
        } else {
            middle
        };
        if !value.is_finite() {
            problems.push(format!("metric {} is not finite", def.name));
        }
        let sep = if rich.is_empty() { "" } else { "," };
        let bound = def.bound.map_or(String::new(), |b| {
            format!(",\"median\":{},\"bound\":{b}", json::number(middle))
        });
        let _ = write!(
            rich,
            "{sep}{}:{{\"value\":{},\"unit\":{},\"better\":{},\"n\":{n}{bound}}}",
            json::quote(&def.name),
            json::number(value),
            json::quote(def.unit),
            json::quote(def.better.word()),
        );
        let _ = write!(
            short,
            "{sep}{}:{{\"value\":{},\"unit\":{}}}",
            json::quote(&def.name),
            json::number(value),
            json::quote(def.unit)
        );
    }

    if let Some(last) = passes.traced.last() {
        for ledger in &last.ledgers {
            eprint!("{ledger}");
        }
        let path = workloads::scratch_dir().join(format!("{}.spans.jsonl", inputs.workload));
        let written = std::fs::create_dir_all(workloads::scratch_dir())
            .and_then(|()| std::fs::write(&path, &last.spans_jsonl));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
        }
    }
    for problem in &problems {
        eprintln!("{}: CHECK FAILED: {problem}", inputs.workload);
    }
    let correct = problems.is_empty();
    let line = format!(
        "{{\"workload\":{},\"trace\":{},\"size\":{},\"seed\":{},\"seconds\":{},\"passes\":{},\"fingerprint\":{},\"digest\":\"{digest:016x}\",\"nproc\":{},\"spinners\":{},\"rustc\":{},\"commit\":{},\"date\":{},\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{rich}}}}}",
        json::quote(inputs.workload),
        u8::from(trace == Trace::On),
        json::quote(inputs.size.tag),
        opts.seed,
        json::number(seconds),
        passes.plain.len() + passes.traced.len(),
        json::quote(&inputs.fingerprint),
        std::thread::available_parallelism().map_or(1, usize::from),
        query::KeepAwake::spinners(),
        json::quote(&rustc_version()),
        json::quote(&opts.commit),
        json::quote(&utc_date()),
    );
    let contract = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{short}}}}}",
        attempted.max(1)
    );
    Record { line, contract, correct }
}

/// Peak resident set of this process, megabytes (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.split_whitespace().nth(1).map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Today's UTC date, `YYYY-MM-DD` (civil-from-days).
fn utc_date() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64);
    let z = secs.div_euclid(86_400) + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = doy - (153 * mp + 2) / 5 + 1;
    let month = if mp < 10 { mp + 3 } else { mp - 9 };
    let year = yoe + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &'static str) -> Vec<Record> {
        let opts = Options {
            workload: Some(workload),
            size: &SMOKE,
            seed: DEFAULT_SEED,
            seconds: Some(0.0),
            traces: vec![Trace::Off, Trace::On],
            commit: "test".to_owned(),
        };
        run_workload(workload, &opts).expect("the workload runs")
    }

    /// Every metric `BENCHMARK.json` declares is emitted exactly once
    /// per workload, finite, with its unit — and nothing undeclared.
    fn emits_what_is_declared(workload: &'static str) -> Vec<Record> {
        let records = smoke(workload);
        assert_eq!(records.len(), 2);
        for (record, defs) in records.iter().zip([catalog::end_to_end(), catalog::per_layer()]) {
            assert!(record.correct, "{workload}: output checks failed");
            let parsed = json::parse(&record.contract).expect("contract line is JSON");
            let json::Value::Obj(top) = &parsed else { panic!("not an object") };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(parsed.get("failed").and_then(json::Value::as_f64), Some(0.0));
            let Some(json::Value::Obj(metrics)) = parsed.get("metrics") else { panic!("metrics") };
            assert_eq!(metrics.len(), defs.len(), "{workload}: declared vs emitted");
            for def in &defs {
                let m = metrics.get(&def.name).unwrap_or_else(|| panic!("{} missing", def.name));
                let value = m.get("value").and_then(json::Value::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{workload}: {} = {value:?}", def.name);
                assert_eq!(m.get("unit").and_then(json::Value::as_str), Some(def.unit));
                if def.bound.is_some() {
                    assert!(
                        value.is_some_and(|v| v > 0.0),
                        "{workload}: {} must not be 0",
                        def.name
                    );
                }
            }
            assert!(json::parse(&record.line).is_ok(), "record line is JSON");
        }
        records
    }

    /// A per-layer metric of the traced record.
    fn layer(records: &[Record], metric: &str) -> f64 {
        let record = json::parse(&records[1].contract).expect("JSON");
        let value = record.get("metrics").and_then(|m| m.get(metric)).and_then(|m| m.get("value"));
        value.and_then(json::Value::as_f64).expect("a declared metric")
    }

    #[test]
    fn feed_replay_emits_what_is_declared() {
        emits_what_is_declared("feed-replay");
    }

    #[test]
    fn feed_durable_emits_what_is_declared() {
        emits_what_is_declared("feed-durable");
    }

    #[test]
    fn serve_live_emits_what_is_declared_and_uses_the_cache() {
        let records = emits_what_is_declared("serve-live");
        assert!(layer(&records, "serve.cache_hit_share") > 0.0);
    }

    #[test]
    fn serve_archive_emits_what_is_declared_and_bypasses_the_cache() {
        let records = emits_what_is_declared("serve-archive");
        assert_eq!(layer(&records, "serve.cache_hit_share"), 0.0);
        assert!(layer(&records, "serve.cache_evictions") > 0.0, "more requests than capacity");
    }

    #[test]
    fn benchmark_json_is_the_catalog() {
        let committed = include_str!("../../../../../BENCHMARK.json");
        assert_eq!(committed, catalog::benchmark_json(), "regenerate with `e2e manifest`");
    }

    #[test]
    fn dates_are_civil() {
        assert_eq!(utc_date().len(), 10);
    }
}
