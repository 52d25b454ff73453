//! The four workloads. Each is a fixed amount of work — a *pass* —
//! which the runner repeats for as long as `--seconds` allows, every
//! pass adding samples of each metric:
//!
//! | workload | bytes in | pipeline | answers out |
//! |---|---|---|---|
//! | `feed-replay` | closed loop, full speed | single writer, in memory | battery after `finish()` |
//! | `feed-durable` | closed loop, disordered waves | 2 lanes, WAL + seals, adaptive | crash, 5 reopens, battery on the recovered archive |
//! | `serve-live` | open loop at a pinned rate | single writer, readers attached | live mix + 32 pushed subscriptions, beside the writes |
//! | `serve-archive` | closed loop, full speed | single writer, finished | rounds of all-distinct old-range requests |
//!
//! Every answer crosses a real loopback socket of a `TcpServer`.

use crate::catalog::{median, percentile};
use crate::client::Client;
use crate::feed::{self, Feed, Size, World, CACHE_CAPACITY};
use crate::ingest::{config_for, event_time, ingest, thread_cpu_s, Ingested, Pipe};
use crate::query::{self, battery, battery_against, KeepAwake, QueryStats};
use crate::requests::{self, direct, Tmpl, SESSIONS};
use crate::trace::{Ledger, Tracer};
use mda_core::{PipelineConfig, PipelineReport, QueryService, Stamped};
use mda_events::ring::EventFilter;
use mda_events::MaritimeEvent;
use mda_geo::time::MINUTE;
use mda_geo::Timestamp;
use mda_serve::frame::crc32;
use mda_serve::session::SessionConfig;
use mda_serve::{
    encode_response, serve_tcp, EventBatch, Request, Response, ServeConfig, ServeCore, TcpServer,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Writer lanes of `feed-durable`.
const WRITERS: usize = 2;
/// Reopens of the crashed directory per `feed-durable` pass.
const REOPENS: usize = 5;
/// Requests of the post-`finish` oracle comparison of `serve-live`.
const ORACLE_BATTERY: usize = 200;
/// Staleness charged to a fix dropped as late: twice the delay clamp
/// ceiling, so dropping is always worse than the widest wait (c17).
const DROP_PENALTY_MS: i64 = 140 * MINUTE;

/// Everything a workload's passes read: made from the seed, before
/// the clock starts.
pub struct Inputs {
    /// The workload's name.
    pub workload: &'static str,
    /// The pinned size.
    pub size: &'static Size,
    /// The feed.
    pub feed: Feed,
    /// Its world.
    pub world: World,
    /// The request templates of the query phase.
    pub templates: Vec<Tmpl>,
    /// How often a pass asks the templates over, each time against a
    /// reference instant one millisecond later.
    pub rounds: i64,
    /// The subscription filters (`serve-live`).
    pub filters: Vec<EventFilter>,
    /// CRC-32s of feed bytes, arrival metadata and request list.
    pub fingerprint: String,
}

/// Generate a workload's inputs from `seed`.
pub fn inputs(workload: &'static str, size: &'static Size, seed: u64) -> Inputs {
    // The request list draws from its own stream, so a change to the
    // scenario generator cannot shift it.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0005_EED0_FE2E);
    let (feed, world) = match workload {
        "feed-durable" => feed::waves(seed, size),
        _ => feed::regional(seed, size),
    };
    let span = feed.end.since(feed.arrivals.first().map_or(feed.end, event_time));
    let (templates, rounds, filters) = match workload {
        "feed-replay" => (requests::live_mix(&mut rng, &world, size.battery), 1, Vec::new()),
        "feed-durable" => {
            (requests::archive_mix(&mut rng, &world, span, size.battery), 1, Vec::new())
        }
        "serve-live" => {
            let templates = requests::live_mix(&mut rng, &world, 4_096);
            (templates, 1, requests::filters(&mut rng, &world))
        }
        _ => {
            let round = requests::distinct_round(&mut rng, &world, span, size.round);
            (round, size.rounds as i64, Vec::new())
        }
    };
    let (bytes, meta) = feed.fingerprint();
    let fingerprint = format!("{bytes:08x}-{meta:08x}-{:08x}", requests::fingerprint(&templates));
    Inputs { workload, size, feed, world, templates, rounds, filters, fingerprint }
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// `(metric, value, samples behind it)`.
    pub values: Vec<(String, f64, u64)>,
    /// Operations attempted: sentences, queries, pushes.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output checks that did not hold (empty = correct).
    pub problems: Vec<String>,
    /// Digest of the pass's outputs; equal across passes of one run.
    pub digest: u64,
    /// Seconds the load threads spent inside ingest calls.
    pub ingest_busy_s: f64,
    /// Mean query round trip, seconds, and how many there were — with
    /// the line above, the fixed work whose traced and untraced cost
    /// give `gen.trace_overhead_share`.
    pub mean_rtt_s: f64,
    /// Queries answered.
    pub queries: u64,
    /// The rendered ledgers of a traced pass.
    pub ledgers: Vec<String>,
    /// The spans of a traced pass, as JSON lines.
    pub spans_jsonl: String,
}

impl PassOut {
    fn put(&mut self, name: &str, value: f64, n: u64) {
        self.values.push((name.to_owned(), value, n));
    }

    fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.problems.push(what());
        }
    }

    fn count_queries(&mut self, stats: &QueryStats) {
        self.attempted += stats.attempted;
        self.failed += stats.failed;
        self.problems.extend(stats.failures.iter().cloned());
    }

    fn set_work(&mut self, ingest_busy_s: f64, stats: &QueryStats) {
        self.ingest_busy_s = ingest_busy_s;
        self.queries = stats.rtt.len() as u64;
        let busy_ns: u64 = stats.rtt.iter().map(|(_, ns)| ns).sum();
        self.mean_rtt_s = busy_ns as f64 / 1e9 / self.queries.max(1) as f64;
    }
}

/// Where passes may write: `e2e/` inside the target directory this
/// executable was built into (`<target>/release/e2e`, or
/// `<target>/debug/deps/e2e-…` under `cargo test`) — always inside the
/// checkout, whatever the working directory.
pub fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let profile_dir = exe
        .ancestors()
        .find(|dir| dir.file_name().is_some_and(|name| name == "release" || name == "debug"));
    profile_dir
        .and_then(|dir| dir.parent())
        .map_or_else(|| "target".into(), PathBuf::from)
        .join("e2e")
}

/// The serving knobs every server of the benchmark runs with, pinned
/// here so a change of the program's defaults does not change the
/// workloads. The session queue is sized above the terminal flush
/// burst (`finish()` sweeps every still-dark vessel at once), so a
/// subscriber that reads never drops.
fn serve_config() -> ServeConfig {
    ServeConfig {
        cache_capacity: CACHE_CAPACITY,
        session: SessionConfig {
            queue_capacity: 8_192,
            evict_after_dropped: 1_024,
            max_sessions: 1_024,
        },
        batch_size: 256,
    }
}

/// Serve `service` on an ephemeral loopback port and connect to it.
fn serve(service: &QueryService) -> Result<(TcpServer, Client), String> {
    let core = Arc::new(ServeCore::new(service.clone(), serve_config()));
    let server = serve_tcp(core, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    Ok((server, client))
}

/// The part of set-up that is the program's, not the generator's:
/// construct a pipeline over the world, bind a server to it, connect.
/// Timed into `setup_s`, so work moved into a constructor shows there.
pub fn probe(inp: &Inputs) -> Result<(), String> {
    let mut pipe = Pipe::single(config_for(&inp.world), &inp.world);
    let (server, client) = serve(&pipe.query_service())?;
    drop(client);
    drop(server);
    Ok(())
}

fn seconds(metric: &mda_core::report::StageMetric) -> f64 {
    metric.busy_nanos as f64 / 1e9
}

/// The program's own stage timers as ledger rows `(layer, seconds)`.
fn stage_rows(report: &PipelineReport) -> [(&'static str, f64); 6] {
    [
        ("stream", seconds(&report.reorder)),
        ("track", seconds(&report.fusion)),
        ("events", seconds(&report.events)),
        ("synopses", seconds(&report.synopses)),
        ("forecast", seconds(&report.analytics)),
        ("store", seconds(&report.storage)),
    ]
}

/// The ingest-side layer metrics, from what the benchmark timed around
/// the calls and what the program already counts (`PipelineReport`).
/// `single` is the single-writer pipeline, when that is what ran; the
/// lanes of the multi-writer one sum their stage timers.
fn ingest_metrics(
    out: &mut PassOut,
    inp: &Inputs,
    ing: &Ingested,
    report: &PipelineReport,
    finish_s: f64,
    single: Option<&Pipe>,
) {
    let obs = ing.observations;
    let lanes = if single.is_some() { 1 } else { WRITERS };
    let picture = single.map_or((0.0, 0.0), Pipe::picture);
    out.put("ais.sentences", ing.sentences as f64, ing.sentences);
    out.put("ais.decode_busy_s", ing.decode_s, ing.sentences);
    out.put(
        "ais.decode_ns_per_sentence",
        ing.decode_s * 1e9 / ing.sentences.max(1) as f64,
        ing.sentences,
    );
    out.put("ais.decode_failed", ing.decode_failed as f64, ing.sentences);
    out.put(
        "ais.multi_fragment_share",
        inp.feed.multi_fragment as f64 / report.ais_messages.max(1) as f64,
        report.ais_messages,
    );
    let push_us: Vec<f64> = ing.push_ns.iter().map(|ns| f64::from(*ns) / 1e3).collect();
    out.put("core.push_busy_s", ing.push_s, obs);
    out.put("core.push_p99_us", percentile(&push_us, 0.99), push_us.len() as u64);
    out.put(
        "core.push_max_ms",
        push_us.iter().copied().fold(0.0, f64::max) / 1e3,
        push_us.len() as u64,
    );
    out.put("core.finish_ms", finish_s * 1e3, 1);
    out.put("core.ingest_stage_busy_s", seconds(&report.ingest), report.ingest.calls);
    // What the push and finish calls cost beyond the seven stage
    // timers: snapshot publication, ring append, control, routing and
    // barrier waits. Lane timers are summed over lanes that run side
    // by side, so they are charged at their per-lane mean.
    let stages: f64 = stage_rows(report).iter().map(|(_, s)| s).sum();
    let inside = ing.push_s + finish_s;
    let unattributed = inside - seconds(&report.ingest) - stages / lanes as f64;
    out.put("core.unattributed_s", unattributed, obs);
    out.put("core.unattributed_share", unattributed / inside.max(f64::MIN_POSITIVE), obs);
    out.put("stream.reorder_busy_s", seconds(&report.reorder), report.reorder.calls);
    out.put("stream.reorder_calls", report.reorder.calls as f64, report.reorder.calls);
    out.put("stream.dropped_late", report.dropped_late as f64, obs);
    out.put("stream.late_drop_share", report.dropped_late as f64 / obs.max(1) as f64, obs);
    let (commits, delay) = report
        .control
        .map_or((0, config_for(&inp.world).watermark_delay), |c| (c.gauges.commits, c.knobs.delay));
    out.put("stream.knob_commits", commits as f64, commits);
    out.put("stream.delay_final_min", delay as f64 / MINUTE as f64, 1);
    out.put("track.fusion_busy_s", seconds(&report.fusion), report.fusion.calls);
    out.put("track.fusion_calls", report.fusion.calls as f64, report.fusion.calls);
    out.put("track.tracks_confirmed", picture.0, 1);
    out.put("events.detect_busy_s", seconds(&report.events), report.events.calls);
    out.put("events.detect_calls", report.events.calls as f64, report.events.calls);
    out.put("events.emitted", report.events_emitted as f64, report.events_emitted);
    out.put("synopses.busy_s", seconds(&report.synopses), report.synopses.calls);
    out.put("synopses.compression_ratio", picture.1, 1);
    out.put("forecast.analytics_busy_s", seconds(&report.analytics), report.analytics.calls);
    out.put("store.storage_busy_s", seconds(&report.storage), report.storage.calls);
    out.put("store.seal_sweeps", report.seal_sweeps as f64, report.seal_sweeps);
    out.put("store.hot_fixes", report.hot_fixes as f64, 1);
    out.put("store.cold_fixes", report.cold_fixes as f64, 1);
    out.put("store.cold_segments", report.cold_segments as f64, 1);
    out.put(
        "store.cold_bytes_per_fix",
        report.cold_bytes as f64 / report.cold_fixes.max(1) as f64,
        report.cold_fixes,
    );
    out.put("store.disk_bytes", report.disk_bytes as f64, 1);
    out.put("store.disk_bytes_per_fix", report.disk_bytes as f64 / obs.max(1) as f64, obs);
}

/// Ring and full-snapshot gauges, read after the timed region.
/// `ring` is `(appended, dropped)` of the event ring that was fed.
fn store_and_ring_metrics(out: &mut PassOut, pipe: &Pipe, ring: (u64, u64)) {
    out.put("events.ring_appended", ring.0 as f64, ring.0);
    out.put("events.ring_dropped", ring.1 as f64, ring.0);
    let t = Instant::now();
    std::hint::black_box(pipe.store().snapshot(None));
    out.put("store.snapshot_us", t.elapsed().as_secs_f64() * 1e6, 1);
}

/// Digest of a run's outputs: the events (sorted by their wire bytes)
/// and the whole archive (every vessel's trajectory, ascending).
fn digest(events: &[MaritimeEvent], pipe: &Pipe) -> u64 {
    let mut encoded: Vec<Vec<u8>> = events
        .iter()
        .map(|e| {
            encode_response(&Response::Events(EventBatch {
                events: vec![(0, e.clone())],
                ..EventBatch::default()
            }))
        })
        .collect();
    encoded.sort();
    let events_crc = crc32(&encoded.concat());
    let mut archive = Vec::new();
    for id in pipe.store().vessels() {
        let trajectory = pipe.store().trajectory(id);
        let stamped = Stamped { watermark: Timestamp::MIN, value: trajectory };
        archive.extend_from_slice(&encode_response(&Response::Trajectory(stamped)));
    }
    (u64::from(events_crc) << 32) | u64::from(crc32(&archive))
}

/// Answer-cache gauges of a server that lived for one pass.
fn cache_metrics(out: &mut PassOut, server: &TcpServer) {
    let cache = server.core().cache_stats();
    let lookups = (cache.hits + cache.misses).max(1);
    out.put("serve.cache_hit_share", cache.hits as f64 / lookups as f64, lookups);
    out.put("serve.cache_evictions", cache.evicted as f64, lookups);
}

fn ring_gauges(service: &QueryService) -> (u64, u64) {
    service.with_event_ring(|ring| (ring.total_appended(), ring.dropped()))
}

/// The query-side metrics of a pass; a traced pass also replays its
/// requests in process to price the server's share.
fn query_metrics(
    out: &mut PassOut,
    stats: &QueryStats,
    tracer: &Tracer,
    service: &QueryService,
    requests: &[Request],
) {
    let replay = tracer.on().then(|| query::replay(service, requests));
    query::metrics(stats, replay.as_ref().map(|r| (tracer, r)), &mut out.values);
}

/// Render the ledger of each traced thread and keep its spans.
/// `main_stages` are the program's stage timers that ran inside the
/// main thread's `core` spans (none when lanes did the work).
fn finish_trace(
    out: &mut PassOut,
    title: &str,
    threads: &[(&str, &Tracer)],
    main_stages: &[(&str, f64)],
) {
    for (thread, tracer) in threads {
        if !tracer.on() {
            continue;
        }
        let inner = if *thread == "main" { main_stages } else { &[] };
        let ledger = Ledger::build(tracer, inner);
        out.ledgers.push(ledger.render(&format!("{title} / {thread}")));
        tracer.write_jsonl(thread, 250_000, &mut out.spans_jsonl);
    }
}

// ---------------------------------------------------------------------------
// feed-replay and serve-archive

/// One pass of `feed-replay` or of `serve-archive`: the whole feed in,
/// closed loop, through the in-memory single writer with no reader
/// attached; `finish()`; then answers out over a socket.
///
/// The two differ in what is asked ([`Inputs::templates`], `rounds`).
/// `feed-replay` asks its battery once, at the final watermark.
/// `serve-archive` asks its list of pairwise distinct old-range
/// requests several times over, each round against a reference instant
/// one millisecond later, so that no instant-bearing request ever
/// repeats and the answer cache (new with every pass) never hits.
pub fn replay_and_serve(inp: &Inputs, tracer: &mut Tracer) -> Result<PassOut, String> {
    let mut out = PassOut::default();
    let root = tracer.enter("wall.pass", 0);
    let span = tracer.enter("gen.rig", 0);
    let mut pipe = Pipe::single(config_for(&inp.world), &inp.world);
    tracer.exit(span);

    let mut ing = ingest(&inp.feed, 0..usize::MAX, &mut pipe, tracer, None, |_, _| {});
    let span = tracer.enter("core.finish", 0);
    let t = Instant::now();
    let tail = pipe.finish();
    let finish_s = t.elapsed().as_secs_f64();
    tracer.exit(span);
    ing.events.extend(tail);
    out.put(
        "ingest_fixes_per_s",
        ing.observations as f64 / (ing.wall_s + finish_s),
        ing.observations,
    );

    // Answers out, each held against the direct answer. The writer is
    // done: the archive is static from here on.
    let span = tracer.enter("gen.rig", 1);
    let _awake = KeepAwake::start();
    let service = pipe.query_service();
    let (server, mut client) = serve(&service)?;
    let end = service.watermark();
    tracer.exit(span);
    let mut stats = QueryStats::default();
    let mut requests = Vec::new();
    for round in 0..inp.rounds {
        let now = end.saturating_add(round);
        requests = inp.templates.iter().map(|t| t.resolve(now)).collect();
        stats.absorb(battery_against(&mut client, &requests, &service, tracer));
    }

    let span = tracer.enter("gen.check", 0);
    let report = pipe.report();
    out.attempted = ing.sentences;
    out.failed = ing.decode_failed;
    out.count_queries(&stats);
    let pushed = report.ais_messages + report.radar_plots + report.vms_reports;
    let ais = inp.feed.arrivals.len() as u64 - report.radar_plots - report.vms_reports;
    out.check(report.ais_messages == ais && ing.decode_failed == 0, || {
        format!("{} AIS messages decoded and pushed, {ais} in the feed", report.ais_messages)
    });
    out.check(pushed == ing.observations && report.dropped_late <= pushed, || {
        format!("pushed {} but the pipeline counted {pushed}", ing.observations)
    });
    out.check(ing.events.len() as u64 == report.events_emitted, || {
        format!("{} events returned, {} emitted", ing.events.len(), report.events_emitted)
    });
    out.digest = digest(&ing.events, &pipe);
    tracer.exit(span);

    out.set_work(ing.decode_s + ing.push_s + finish_s, &stats);
    if tracer.on() {
        let span = tracer.enter("gen.replay", 0);
        ingest_metrics(&mut out, inp, &ing, &report, finish_s, Some(&pipe));
        store_and_ring_metrics(&mut out, &pipe, ring_gauges(&service));
        cache_metrics(&mut out, &server);
        tracer.exit(span);
    }
    query_metrics(&mut out, &stats, tracer, &service, &requests);
    drop(client);
    drop(server);
    tracer.exit(root);
    finish_trace(&mut out, inp.workload, &[("main", tracer)], &stage_rows(&report));
    Ok(out)
}

// ---------------------------------------------------------------------------
// feed-durable

/// c17's fix-visibility staleness, sampled between chunks: for every
/// fix, how far the arrival frontier had moved past its event time
/// when the published stamp first covered it; a dropped fix is charged
/// [`DROP_PENALTY_MS`]. The fixes the router reported dropped since
/// the last chunk are the earliest event times pushed in it (the drop
/// rule is a threshold on event time).
#[derive(Default)]
struct Staleness {
    pending: BinaryHeap<Reverse<i64>>,
    samples: Vec<i64>,
    seen_dropped: u64,
    frontier: i64,
}

impl Staleness {
    fn settle(&mut self, mut window: Vec<i64>, dropped: u64, stamp: i64) {
        let newly = (dropped - self.seen_dropped) as usize;
        self.seen_dropped = dropped;
        window.sort_unstable();
        for (i, t) in window.into_iter().enumerate() {
            self.frontier = self.frontier.max(t);
            if i < newly {
                self.samples.push(DROP_PENALTY_MS);
            } else {
                self.pending.push(Reverse(t));
            }
        }
        while self.pending.peek().is_some_and(|r| r.0 <= stamp) {
            if let Some(Reverse(t)) = self.pending.pop() {
                self.samples.push(self.frontier - t);
            }
        }
    }

    /// p99 in minutes; whatever is still pending at the crash never
    /// became visible and is left out.
    fn p99_min(&self) -> (f64, u64) {
        let samples: Vec<f64> = self.samples.iter().map(|ms| *ms as f64 / MINUTE as f64).collect();
        (percentile(&samples, 0.99), samples.len() as u64)
    }
}

static DURABLE_DIRS: AtomicU64 = AtomicU64::new(0);

/// One `feed-durable` pass.
pub fn feed_durable(inp: &Inputs, tracer: &mut Tracer) -> Result<PassOut, String> {
    let mut out = PassOut::default();
    let _awake = KeepAwake::start();
    let root = tracer.enter("wall.pass", 0);
    let span = tracer.enter("gen.rig", 0);
    let dir = scratch_dir().join(format!(
        "durable-{}-{}",
        std::process::id(),
        DURABLE_DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let config = PipelineConfig::adaptive(inp.world.bounds).with_durability(&dir);
    let mut pipe = Pipe::multi(config.clone(), WRITERS);
    // A reader is attached, so snapshot publication runs: the durable
    // deployment is one that is being served.
    let service = pipe.query_service();
    tracer.exit(span);

    let mut staleness = Staleness { frontier: i64::MIN, ..Staleness::default() };
    let sample = tracer.on();
    let ing = ingest(&inp.feed, 0..usize::MAX, &mut pipe, tracer, None, |pipe, chunk| {
        if sample {
            let window = chunk.iter().map(|a| event_time(a).millis()).collect();
            staleness.settle(window, pipe.report().dropped_late, service.watermark().millis());
        }
    });
    out.put("ingest_fixes_per_s", ing.observations as f64 / ing.wall_s, ing.observations);

    // What the readers of the crashed run last saw.
    let span = tracer.enter("gen.check", 0);
    let report = pipe.report();
    let published = service.watermark();
    let durable = pipe.durable().map_or(Timestamp::MIN, |d| d.watermark());
    out.check(published == durable && published > Timestamp::MIN, || {
        format!("published stamp {published:?} but durable mark {durable:?}")
    });
    let requests: Vec<Request> = inp.templates.iter().map(|t| t.resolve(published)).collect();
    let snapshot = service.snapshot();
    let before: Vec<Vec<u8>> =
        requests.iter().map(|r| encode_response(&direct(&snapshot, r))).collect();
    out.digest = u64::from(crc32(&before.concat()));
    let ring = ring_gauges(&service);
    drop(snapshot);
    tracer.exit(span);

    // The crash: no finish(), no shutdown path.
    let span = tracer.enter("core.drop", 0);
    drop(service);
    drop(pipe);
    tracer.exit(span);

    let mut recover_ms = Vec::new();
    let mut open_ms = Vec::new();
    let mut served = None;
    for reopen in 0..REOPENS {
        let span = tracer.enter("store.recover", reopen as u64);
        let t = Instant::now();
        let mut back = Pipe::multi(config.clone(), WRITERS);
        open_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let service = back.query_service();
        let first = encode_response(&direct(&service.snapshot(), &requests[0]));
        recover_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.exit(span);

        let span = tracer.enter("gen.check", 1 + reopen as u64);
        let recovered = back.durable().map_or(Timestamp::MIN, |d| d.recovery().watermark);
        out.check(recovered == published && service.watermark() == published, || {
            format!(
                "reopen {reopen} recovered {recovered:?}, the crashed run published {published:?}"
            )
        });
        out.check(first == before[0], || format!("reopen {reopen}: first answer differs"));
        tracer.exit(span);
        if reopen + 1 < REOPENS {
            let snapshot = service.snapshot();
            let differing = requests
                .iter()
                .zip(&before)
                .filter(|(r, b)| encode_response(&direct(&snapshot, r)) != **b)
                .count();
            out.check(differing == 0, || format!("reopen {reopen}: {differing} answers differ"));
        } else {
            served = Some((back, service));
        }
    }
    let (back, service) = served.ok_or("no reopen ran")?;

    // Answers out: the same battery over a socket of the recovered
    // archive, bit-equal to what the crashed run's readers saw.
    let span = tracer.enter("gen.rig", 1);
    let (server, mut client) = serve(&service)?;
    tracer.exit(span);
    let stats = battery(&mut client, &requests, tracer, |i, _| before[i].clone());

    out.attempted = ing.sentences;
    out.failed = ing.decode_failed;
    out.count_queries(&stats);
    out.set_work(ing.decode_s + ing.push_s, &stats);
    if tracer.on() {
        let span = tracer.enter("gen.replay", 0);
        ingest_metrics(&mut out, inp, &ing, &report, 0.0, None);
        store_and_ring_metrics(&mut out, &back, ring);
        let (p99, n) = staleness.p99_min();
        out.put("stream.staleness_p99_min", p99, n);
        out.put("store.recover_open_ms", median(&open_ms), open_ms.len() as u64);
        out.put("store.recover_ms", median(&recover_ms), recover_ms.len() as u64);
        tracer.exit(span);
    }
    query_metrics(&mut out, &stats, tracer, &service, &requests);
    drop(client);
    drop(server);
    drop(service);
    drop(back);
    let _ = std::fs::remove_dir_all(&dir);
    tracer.exit(root);
    finish_trace(&mut out, inp.workload, &[("main", tracer)], &[]);
    if tracer.on() {
        // The lanes ran beside the main thread, so their stage timers
        // are not rows of its ledger.
        let mut lanes = format!("-- {WRITERS} lanes of {} (busy, summed) --\n", inp.workload);
        for (row, s) in stage_rows(&report) {
            lanes.push_str(&format!("{row:>14}  {s:>9.4} s\n"));
        }
        out.ledgers.push(lanes);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// serve-live

/// Per-session delivery accounting, from the pushed batches.
#[derive(Default, Clone, Copy)]
struct SessionTally {
    start: u64,
    delivered: u64,
    missed: u64,
    filtered: u64,
    dropped: u64,
}

/// One `serve-live` pass.
pub fn serve_live(inp: &Inputs, tracer: &mut Tracer) -> Result<PassOut, String> {
    let mut out = PassOut::default();
    let _awake = KeepAwake::start();
    let root = tracer.enter("wall.pass", 0);
    let span = tracer.enter("gen.rig", 0);
    let mut pipe = Pipe::single(config_for(&inp.world), &inp.world);
    let service = pipe.query_service();
    let (server, mut queries) = serve(&service)?;
    let mut subscriber = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut sessions: Vec<(u64, SessionTally)> = Vec::with_capacity(SESSIONS);
    for (i, filter) in inp.filters.iter().enumerate() {
        let request = Request::Subscribe { filter: filter.clone(), resume_at: None };
        match subscriber.call(&request, tracer, i as u64)?.response {
            Response::Subscribed { session, cursor } => {
                sessions.push((session, SessionTally { start: cursor, ..SessionTally::default() }));
            }
            other => return Err(format!("subscribe refused: {other:?}")),
        }
    }
    // Warm up, closed loop and off the clock: the watermark trails the
    // newest event by its 40-minute delay, so a cold server would have
    // nothing published to ask about for most of a short pass.
    let warm = inp.size.live_warmup.min(inp.feed.arrivals.len());
    let mut total = ingest(&inp.feed, 0..warm, &mut pipe, tracer, None, |_, _| {});
    tracer.exit(span);

    // Bytes in on this thread at the pinned rate; answers out on the
    // client thread, closed loop, for exactly as long.
    let stop = AtomicBool::new(false);
    let mut client_tracer = tracer.sibling();
    let mut timeline: Vec<(u64, Instant)> = Vec::new();
    let n = inp.size.live_arrivals.min(inp.feed.arrivals.len() - warm);
    let (ing, cpu_s, finish_s, tail, live) = std::thread::scope(|scope| {
        let client_thread = scope.spawn(|| {
            let root = client_tracer.enter("wall.client", 0);
            let stats = query::live(
                &mut queries,
                &mut subscriber,
                &inp.templates,
                &stop,
                &mut client_tracer,
            );
            client_tracer.exit(root);
            stats
        });
        let mut last = 0;
        let cpu_before = thread_cpu_s();
        let ing = ingest(
            &inp.feed,
            warm..warm + n,
            &mut pipe,
            tracer,
            Some(inp.size.live_rate),
            |_, _| {
                let total = service.with_event_ring(|ring| ring.total_appended());
                if total != last {
                    last = total;
                    timeline.push((total, Instant::now()));
                }
            },
        );
        let cpu_s = cpu_before.zip(thread_cpu_s()).map(|(before, after)| after - before);
        stop.store(true, Ordering::Release);
        let span = tracer.enter("core.finish", 0);
        let t = Instant::now();
        let tail = pipe.finish();
        let finish_s = t.elapsed().as_secs_f64();
        tracer.exit(span);
        timeline.push((service.with_event_ring(|ring| ring.total_appended()), Instant::now()));
        let live = client_thread.join().map_err(|_| "the client thread panicked".to_owned());
        (ing, cpu_s, finish_s, tail, live)
    });
    let live = live?;
    // The arrival rate is pinned, so what can move is what ingesting at
    // it costs the writer beside its readers: observations per second
    // this thread was on a CPU between the first paced arrival and the
    // last — pacing naps and time preempted by the client, the server's
    // connection thread or a neighbour left out (on two cores the wall
    // time of the same calls swung by a third with who got scheduled).
    let paced_busy_s = ing.decode_s + ing.push_s;
    let on_cpu_s = cpu_s.filter(|s| *s > 0.0).unwrap_or(paced_busy_s);
    out.put("ingest_fixes_per_s", ing.observations as f64 / on_cpu_s, ing.observations);
    let due_s = n as f64 / inp.size.live_rate;
    out.check(ing.wall_s <= due_s * 1.02 + 0.05, || {
        format!(
            "unsustainable: {n} arrivals due in {due_s:.2} s took {:.2} s at {} obs/s",
            ing.wall_s, inp.size.live_rate
        )
    });
    // From here on the layer metrics speak of everything this
    // pipeline ingested, warm-up included: the program's own stage
    // timers cannot tell the two apart.
    total.absorb(ing);
    let mut ing = total;

    // Let the terminal flush reach the subscriber: quiet for five read
    // polls of the server, at most three seconds.
    let span = tracer.enter("gen.quiesce", 0);
    let appended = service.with_event_ring(|ring| ring.total_appended());
    let deadline = Instant::now() + Duration::from_secs(3);
    let mut quiet_since = Instant::now();
    let mut seen = subscriber.pushes.len();
    while Instant::now() < deadline && quiet_since.elapsed() < Duration::from_millis(100) {
        subscriber.poll_pushes()?;
        if subscriber.pushes.len() != seen {
            seen = subscriber.pushes.len();
            quiet_since = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    tracer.exit(span);

    // Push latency: ring append (the first timeline point that covers
    // the sequence number) to the Events frame decoded at the
    // subscriber socket.
    let span = tracer.enter("gen.check", 0);
    let mut latency_ms = Vec::new();
    let mut frames = 0u64;
    let fold = |tally: &mut SessionTally, batch: &EventBatch| {
        tally.delivered += batch.events.len() as u64;
        tally.missed = batch.missed;
        tally.filtered = batch.filtered;
        tally.dropped = batch.dropped;
    };
    for push in &subscriber.pushes {
        frames += 1;
        for (seq, _) in &push.batch.events {
            let at = timeline.partition_point(|(total, _)| total <= seq);
            if let Some((_, appended_at)) = timeline.get(at) {
                latency_ms
                    .push(push.at.saturating_duration_since(*appended_at).as_secs_f64() * 1e3);
            }
        }
        if let Some((_, tally)) = sessions.iter_mut().find(|(s, _)| *s == push.batch.session) {
            fold(tally, &push.batch);
        }
    }
    // Close the books: drain every session by request, then
    // `cursor = delivered + queued + dropped + filtered + missed`
    // with nothing left queued and the cursor at the ring's head.
    for (session, tally) in &mut sessions {
        loop {
            match queries
                .call(&Request::PollSession { session: *session }, tracer, *session)?
                .response
            {
                Response::Events(batch) => {
                    fold(tally, &batch);
                    if batch.events.is_empty() {
                        break;
                    }
                }
                other => return Err(format!("poll of session {session} answered {other:?}")),
            }
        }
        let examined = tally.delivered + tally.dropped + tally.filtered + tally.missed;
        out.check(tally.start + examined == appended, || {
            format!(
                "session {session}: start {} + delivered {} + dropped {} + filtered {} + missed {} != ring head {appended}",
                tally.start, tally.delivered, tally.dropped, tally.filtered, tally.missed
            )
        });
    }
    let sum = |f: fn(&SessionTally) -> u64| sessions.iter().map(|(_, t)| f(t)).sum::<u64>();
    let (delivered, lost) = (sum(|t| t.delivered), sum(|t| t.dropped) + sum(|t| t.missed));
    let evicted = subscriber.evicted + queries.evicted;
    let report = pipe.report();
    let mut events = std::mem::take(&mut ing.events);
    events.extend(tail);
    out.check(events.len() as u64 == report.events_emitted, || {
        format!("{} events returned, {} emitted", events.len(), report.events_emitted)
    });
    out.digest = digest(&events, &pipe);
    tracer.exit(span);

    // The archive is static now: the oracle comparison the live phase
    // could not make.
    let now = service.watermark();
    let requests: Vec<Request> =
        inp.templates.iter().take(ORACLE_BATTERY).map(|t| t.resolve(now)).collect();
    let oracle = battery_against(&mut queries, &requests, &service, tracer);

    out.attempted = ing.sentences + delivered + lost + evicted;
    out.failed = ing.decode_failed + lost + evicted;
    out.count_queries(&live);
    out.count_queries(&oracle);
    out.set_work(paced_busy_s + finish_s, &live);
    if tracer.on() {
        let span = tracer.enter("gen.replay", 0);
        ingest_metrics(&mut out, inp, &ing, &report, finish_s, Some(&pipe));
        store_and_ring_metrics(&mut out, &pipe, ring_gauges(&service));
        cache_metrics(&mut out, &server);
        out.put("serve.pushes", frames as f64, frames);
        out.put("serve.events_per_push", delivered as f64 / frames.max(1) as f64, frames);
        let n = latency_ms.len() as u64;
        out.put("serve.push_latency_p50_ms", percentile(&latency_ms, 0.50), n);
        out.put("serve.push_latency_p99_ms", percentile(&latency_ms, 0.99), n);
        out.put("serve.session_dropped", sum(|t| t.dropped) as f64, delivered);
        out.put("serve.session_filtered", sum(|t| t.filtered) as f64, delivered);
        out.put("serve.session_missed", sum(|t| t.missed) as f64, delivered);
        out.put("serve.sessions_evicted", evicted as f64, SESSIONS as u64);
        let n = ing.sched_lag_ms.len() as u64;
        out.put("gen.sched_lag_p99_ms", percentile(&ing.sched_lag_ms, 0.99), n);
        out.put("gen.sched_lag_max_ms", ing.sched_lag_ms.iter().copied().fold(0.0, f64::max), n);
        tracer.exit(span);
    }
    query_metrics(&mut out, &live, tracer, &service, &requests);
    drop(queries);
    drop(subscriber);
    drop(server);
    tracer.exit(root);
    let threads = [("main", &*tracer), ("client", &client_tracer)];
    finish_trace(&mut out, inp.workload, &threads, &stage_rows(&report));
    Ok(out)
}
