//! The consumer side: closed-loop query phases over the wire, their
//! checks, and the in-process replay that prices the server's share.

use crate::catalog::{percentile, KINDS};
use crate::client::Client;
use crate::requests::{direct, kind_of, stamp_of, Tmpl};
use crate::trace::Tracer;
use mda_core::QueryService;
use mda_geo::Timestamp;
use mda_serve::{encode_request, encode_response, Request, Response, ServeConfig, ServeCore};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Keeps the machine's other CPUs out of the idle state while threads
/// hand work to each other — the benchmark's `idle=poll`.
///
/// A request/response ping-pong, writer lanes meeting at a barrier, a
/// paced generator waking from its nap: each time, a CPU sits idle
/// until it is woken. On the virtual machine this benchmark was pinned
/// on, leaving the idle state cost 30–40 µs for a quarter of an hour
/// and next to nothing afterwards (the hypervisor's halt polling
/// adapts): a 4× swing of `query_rtt_p50_us`, and two regimes of
/// `feed-durable` ingest 15 % apart, with no change to the program.
/// One yielding spinner per spare CPU removes the swing: no CPU ever
/// halts. It also removes the wake-up a real consumer pays, so a
/// round trip read here is a floor, and every record says how many
/// spinners ran (`spinners`). Single-writer closed-loop ingest hands
/// nothing over and measured the same either way, so it runs without.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinners: Vec<std::thread::JoinHandle<()>>,
}

impl KeepAwake {
    /// How many spinners [`KeepAwake::start`] starts: one per CPU
    /// beyond the first.
    pub fn spinners() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from) - 1
    }

    /// Start the spinners.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let spinners = (0..Self::spinners())
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..256 {
                            std::hint::spin_loop();
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();
        Self { stop, spinners }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for spinner in self.spinners.drain(..) {
            let _ = spinner.join();
        }
    }
}

/// What a query phase measured.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// `(kind index, round-trip nanoseconds)` per answered request.
    pub rtt: Vec<(usize, u64)>,
    /// Send-to-first-byte nanoseconds per answered request.
    pub wait_ns: Vec<u64>,
    /// Response payload bytes per answered request.
    pub response_bytes: Vec<u64>,
    /// Request + response frame bytes, total.
    pub wire_bytes: u64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that errored, timed out, answered `Error`, or differed
    /// from the oracle.
    pub failed: u64,
    /// The first few failures, for the record.
    pub failures: Vec<String>,
}

impl QueryStats {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Round trips in microseconds, all kinds.
    pub fn rtt_us(&self) -> Vec<f64> {
        self.rtt.iter().map(|(_, ns)| *ns as f64 / 1e3).collect()
    }

    /// Fold another phase of the same pass into this one.
    pub fn absorb(&mut self, other: QueryStats) {
        self.rtt.extend(other.rtt);
        self.wait_ns.extend(other.wait_ns);
        self.response_bytes.extend(other.response_bytes);
        self.wire_bytes += other.wire_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
    }
}

/// Issue `requests` closed-loop and hold every answer byte-equal to
/// `expected(i, request)`. The comparison runs between requests,
/// outside the timed round trip.
pub fn battery(
    client: &mut Client,
    requests: &[Request],
    tracer: &mut Tracer,
    mut expected: impl FnMut(usize, &Request) -> Vec<u8>,
) -> QueryStats {
    let mut stats = QueryStats::default();
    for (i, request) in requests.iter().enumerate() {
        stats.attempted += 1;
        match client.call(request, tracer, i as u64) {
            Ok(answer) => {
                let check = tracer.enter("gen.check", i as u64);
                if matches!(answer.response, Response::Error { .. }) {
                    stats.fail(format!("request {i} {request:?} answered {:?}", answer.response));
                } else if answer.payload != expected(i, request) {
                    stats.fail(format!("request {i} {request:?} differs from the oracle"));
                }
                stats.rtt.push((kind_of(request), answer.rtt_ns));
                stats.wait_ns.push(answer.wait_ns);
                stats.response_bytes.push(answer.payload.len() as u64);
                stats.wire_bytes += answer.wire_bytes as u64;
                tracer.exit(check);
            }
            Err(e) => stats.fail(format!("request {i} {request:?}: {e}")),
        }
    }
    stats
}

/// [`battery`] against a static service: the oracle is the direct
/// answer from one pinned snapshot.
pub fn battery_against(
    client: &mut Client,
    requests: &[Request],
    service: &QueryService,
    tracer: &mut Tracer,
) -> QueryStats {
    let snapshot = service.snapshot();
    battery(client, requests, tracer, |_, request| encode_response(&direct(&snapshot, request)))
}

/// The live query loop of `serve-live`: resolve each template against
/// the watermark last seen, issue it on `queries`, then pick up pushes
/// on `subscriber` without blocking; until `stop`. Checks what can be
/// checked while state moves: no `Error`, stamps never regress.
pub fn live(
    queries: &mut Client,
    subscriber: &mut Client,
    templates: &[Tmpl],
    stop: &AtomicBool,
    tracer: &mut Tracer,
) -> QueryStats {
    let mut stats = QueryStats::default();
    let mut seen = Timestamp::MIN;
    let mut i = 0usize;
    while !stop.load(Ordering::Acquire) {
        // The first request learns the watermark the rest refer to.
        let request = if seen == Timestamp::MIN {
            Request::Watermark
        } else {
            templates[i % templates.len()].resolve(seen)
        };
        stats.attempted += 1;
        match queries.call(&request, tracer, i as u64) {
            Ok(answer) => {
                if matches!(answer.response, Response::Error { .. }) {
                    stats.fail(format!("live request {request:?} answered {:?}", answer.response));
                }
                if let Some(stamp) = stamp_of(&answer.response) {
                    if stamp < seen {
                        stats.fail(format!("stamp regressed: {stamp:?} after {seen:?}"));
                    }
                    seen = seen.max(stamp);
                }
                stats.rtt.push((kind_of(&request), answer.rtt_ns));
                stats.wait_ns.push(answer.wait_ns);
                stats.response_bytes.push(answer.payload.len() as u64);
                stats.wire_bytes += answer.wire_bytes as u64;
            }
            Err(e) => stats.fail(format!("live request {request:?}: {e}")),
        }
        let span = tracer.enter("gen.poll_pushes", i as u64);
        if let Err(e) = subscriber.poll_pushes() {
            stats.fail(e);
        }
        tracer.exit(span);
        i += 1;
    }
    stats
}

/// Server-side cost of the recorded requests, replayed in process
/// against the (now static) service: `handle_bytes` on a fresh core
/// (every request a miss), again at once (every request a hit), and
/// the matching direct query. Exact for a static archive; for
/// `serve-live` it prices the requests against the final state.
#[derive(Debug, Default)]
pub struct Replay {
    /// `handle_bytes` on a miss, microseconds per request.
    pub miss_us: Vec<f64>,
    /// `handle_bytes` on a hit, microseconds per request.
    pub hit_us: Vec<f64>,
    /// Direct query cost, microseconds, by kind index.
    pub direct_us: [Vec<f64>; 9],
}

/// Replay `requests` (see [`Replay`]).
pub fn replay(service: &QueryService, requests: &[Request]) -> Replay {
    let core = ServeCore::new(
        service.clone(),
        ServeConfig { cache_capacity: requests.len() + 1, ..ServeConfig::default() },
    );
    let snapshot = service.snapshot();
    let mut out = Replay::default();
    for request in requests {
        let bytes = encode_request(request);
        let t0 = Instant::now();
        let cold = core.handle_bytes(&bytes);
        let t1 = Instant::now();
        let warm = core.handle_bytes(&bytes);
        let t2 = Instant::now();
        let answer = direct(&snapshot, request);
        let t3 = Instant::now();
        std::hint::black_box((cold, warm, answer));
        out.miss_us.push((t1 - t0).as_secs_f64() * 1e6);
        out.hit_us.push((t2 - t1).as_secs_f64() * 1e6);
        out.direct_us[kind_of(request)].push((t3 - t2).as_secs_f64() * 1e6);
    }
    out
}

/// The query-side metrics of a pass: `(name, value, samples)`. The
/// two end-to-end ones always; the `serve.*` / `core.query_us.*`
/// layer metrics when a traced run supplies `layers`.
pub fn metrics(
    stats: &QueryStats,
    layers: Option<(&Tracer, &Replay)>,
    out: &mut Vec<(String, f64, u64)>,
) {
    // Over every round trip of the pass.
    let rtt = stats.rtt_us();
    let n = rtt.len() as u64;
    out.push(("query_rtt_p50_us".into(), percentile(&rtt, 0.50), n));
    out.push(("query_rtt_p99_us".into(), percentile(&rtt, 0.99), n));
    let Some((tracer, replay)) = layers else { return };
    // One client asking one request at a time: the rate is the
    // reciprocal of the mean round trip, checks between requests left
    // out.
    let busy_s = rtt.iter().sum::<f64>() / 1e6;
    out.push(("serve.queries_per_s".into(), n as f64 / busy_s.max(f64::MIN_POSITIVE), n));
    out.push(("serve.wire_bytes_per_query".into(), stats.wire_bytes as f64 / n.max(1) as f64, n));

    let sizes: Vec<f64> = stats.response_bytes.iter().map(|b| *b as f64).collect();
    let response_kb = sizes.iter().sum::<f64>() / 1024.0;
    let request_kb = (stats.wire_bytes as f64 - sizes.iter().sum::<f64>()) / 1024.0;
    let (encodes, encode_ns) = tracer.total("serve.encode");
    let (_, frame_ns) = tracer.total("serve.frame");
    let (_, unframe_ns) = tracer.total("serve.unframe");
    let (_, decode_ns) = tracer.total("serve.decode");
    let per = |ns: u64, by: f64| if by > 0.0 { ns as f64 / by } else { 0.0 };
    out.push(("serve.encode_request_ns".into(), per(encode_ns, encodes as f64), encodes));
    out.push(("serve.decode_response_ns_per_kb".into(), per(decode_ns, response_kb), n));
    out.push((
        "serve.frame_ns_per_kb".into(),
        per(frame_ns + unframe_ns, request_kb + response_kb),
        n,
    ));
    let miss = percentile(&replay.miss_us, 0.5);
    out.push(("serve.handle_miss_p50_us".into(), miss, replay.miss_us.len() as u64));
    out.push((
        "serve.handle_hit_p50_us".into(),
        percentile(&replay.hit_us, 0.5),
        replay.hit_us.len() as u64,
    ));
    // What the round trip costs beyond answering: socket, connection
    // thread wake-up, and the decode → encode → decode → encode detour
    // `serve_connection` takes through `ServeCore::handle`.
    let waits: Vec<f64> = stats.wait_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    out.push(("serve.transport_p50_us".into(), (percentile(&waits, 0.5) - miss).max(0.0), n));
    out.push(("serve.response_bytes_p50".into(), percentile(&sizes, 0.50), n));
    out.push(("serve.response_bytes_p99".into(), percentile(&sizes, 0.99), n));
    for (k, kind) in KINDS.iter().enumerate() {
        let of_kind: Vec<f64> =
            stats.rtt.iter().filter(|(i, _)| *i == k).map(|(_, ns)| *ns as f64 / 1e3).collect();
        let n = of_kind.len() as u64;
        out.push((format!("serve.rtt_p50_us.{kind}"), percentile(&of_kind, 0.50), n));
        out.push((format!("serve.rtt_p99_us.{kind}"), percentile(&of_kind, 0.99), n));
        let direct = &replay.direct_us[k];
        out.push((format!("core.query_us.{kind}"), percentile(direct, 0.5), direct.len() as u64));
    }
}
