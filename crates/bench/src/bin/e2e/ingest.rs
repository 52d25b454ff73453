//! Driving a feed into a pipeline, in process: AIVDM bytes →
//! `parse_sentence` → `SentenceAssembler::push` → `decode_payload` →
//! `push_ais` / `push_radar` / `push_vms`, closed-loop at full speed
//! or open-loop at a pinned rate.
//!
//! The wire has no ingest operation, so this is where the bytes enter
//! until one exists. Arrivals are handled in chunks: decode the chunk,
//! then push the chunk — each a span, so `ais` and `core` separate in
//! the ledger without a clock read per observation.

use crate::feed::{Arrival, Feed, Payload, World};
use crate::trace::Tracer;
use mda_ais::{decode_payload, parse_sentence, SentenceAssembler};
use mda_core::{
    MaritimePipeline, MultiWriterPipeline, PipelineConfig, PipelineReport, QueryService,
};
use mda_events::MaritimeEvent;
use mda_geo::Timestamp;
use mda_sim::corruption::CorruptionLabel;
use mda_sim::receivers::{RadarPlot, VmsReport};
use mda_sim::scenario::AisObservation;
use std::time::{Duration, Instant};

/// Arrivals per chunk.
pub const CHUNK: usize = 1_024;

/// The pipeline configuration of a world: the regional defaults with
/// the world's zones installed.
pub fn config_for(world: &World) -> PipelineConfig {
    let mut config = PipelineConfig::regional(world.bounds);
    config.events.zones = world.zones.clone();
    config
}

/// Either pipeline frontend, behind the calls the benchmark makes.
pub enum Pipe {
    /// The classic single-writer loop.
    Single(Box<MaritimePipeline>),
    /// The shard-owning writer lanes.
    Multi(Box<MultiWriterPipeline>),
}

impl Pipe {
    /// The single-writer pipeline over `world`, weather attached.
    pub fn single(config: PipelineConfig, world: &World) -> Self {
        let pipeline = MaritimePipeline::new(config);
        Pipe::Single(Box::new(match &world.weather {
            Some(weather) => pipeline.with_weather(weather.clone()),
            None => pipeline,
        }))
    }

    /// The multi-writer pipeline with `writers` lanes.
    pub fn multi(config: PipelineConfig, writers: usize) -> Self {
        Pipe::Multi(Box::new(MultiWriterPipeline::new(config, writers)))
    }

    fn push(&mut self, item: &Decoded) -> Vec<MaritimeEvent> {
        match (self, item) {
            (Pipe::Single(p), Decoded::Ais(o)) => p.push_ais(o),
            (Pipe::Single(p), Decoded::Radar(r)) => p.push_radar(r),
            (Pipe::Single(p), Decoded::Vms(v)) => p.push_vms(v),
            (Pipe::Multi(p), Decoded::Ais(o)) => p.push_ais(o),
            (Pipe::Multi(p), Decoded::Radar(r)) => p.push_radar(r),
            (Pipe::Multi(p), Decoded::Vms(v)) => p.push_vms(v),
        }
    }

    /// `finish()` of either frontend.
    pub fn finish(&mut self) -> Vec<MaritimeEvent> {
        match self {
            Pipe::Single(p) => p.finish(),
            Pipe::Multi(p) => p.finish(),
        }
    }

    /// The frontend's report (a copy).
    pub fn report(&self) -> PipelineReport {
        match self {
            Pipe::Single(p) => p.report().clone(),
            Pipe::Multi(p) => p.report(),
        }
    }

    /// A query handle.
    pub fn query_service(&mut self) -> QueryService {
        match self {
            Pipe::Single(p) => p.query_service(),
            Pipe::Multi(p) => p.query_service(),
        }
    }

    /// The archive.
    pub fn store(&self) -> &mda_store::SharedTrajectoryStore {
        match self {
            Pipe::Single(p) => p.store(),
            Pipe::Multi(p) => p.store(),
        }
    }

    /// The durable watermark and recovery report, when durable.
    pub fn durable(&self) -> Option<&mda_store::DurableStore> {
        match self {
            Pipe::Single(p) => p.durable(),
            Pipe::Multi(p) => p.durable(),
        }
    }

    /// `(confirmed tracks, synopsis compression ratio)` — the single
    /// writer exposes both; the lanes expose neither.
    pub fn picture(&self) -> (f64, f64) {
        match self {
            Pipe::Single(p) => (p.fuser().stats().1 as f64, p.compression_ratio()),
            Pipe::Multi(_) => (0.0, 0.0),
        }
    }
}

/// One decoded arrival, ready to push.
enum Decoded {
    Ais(AisObservation),
    Radar(RadarPlot),
    Vms(VmsReport),
}

/// What one ingest run measured.
#[derive(Debug, Default)]
pub struct Ingested {
    /// Observations pushed (AIS messages + radar plots + VMS reports).
    pub observations: u64,
    /// Events the push calls returned.
    pub events: Vec<MaritimeEvent>,
    /// Sentence lines parsed.
    pub sentences: u64,
    /// Lines or payloads that did not decode, plus messages whose
    /// fragments never completed.
    pub decode_failed: u64,
    /// Seconds inside the decode step.
    pub decode_s: f64,
    /// Seconds inside the push step.
    pub push_s: f64,
    /// First byte parsed to last push returned, seconds.
    pub wall_s: f64,
    /// Per-call push times, nanoseconds (traced runs only).
    pub push_ns: Vec<u32>,
    /// Open-loop only: how late the generator started each chunk
    /// after its first arrival was due, milliseconds.
    pub sched_lag_ms: Vec<f64>,
}

impl Ingested {
    /// Fold a later ingest run of the same pipeline into this one.
    pub fn absorb(&mut self, mut later: Ingested) {
        self.observations += later.observations;
        self.events.append(&mut later.events);
        self.sentences += later.sentences;
        self.decode_failed += later.decode_failed;
        self.decode_s += later.decode_s;
        self.push_s += later.push_s;
        self.wall_s += later.wall_s;
        self.push_ns.append(&mut later.push_ns);
        self.sched_lag_ms.append(&mut later.sched_lag_ms);
    }
}

fn decode_chunk(
    feed: &Feed,
    chunk: &[Arrival],
    assembler: &mut SentenceAssembler,
    out: &mut Vec<Decoded>,
    stats: &mut Ingested,
) {
    for arrival in chunk {
        match &arrival.payload {
            Payload::Radar(plot) => out.push(Decoded::Radar(*plot)),
            Payload::Vms(report) => out.push(Decoded::Vms(*report)),
            Payload::Ais { t_sent, via_satellite, truth_id, lines } => {
                let bytes = &feed.bytes[lines.0 as usize..lines.1 as usize];
                let mut message = None;
                for line in bytes.split(|b| *b == b'\n').filter(|l| !l.is_empty()) {
                    stats.sentences += 1;
                    let bits = std::str::from_utf8(line)
                        .ok()
                        .and_then(|text| parse_sentence(text).ok())
                        .and_then(|sentence| assembler.push(sentence).ok());
                    match bits {
                        Some(Some(bits)) => message = decode_payload(&bits).ok(),
                        Some(None) => {}
                        None => stats.decode_failed += 1,
                    }
                }
                match message {
                    Some(msg) => out.push(Decoded::Ais(AisObservation {
                        t_sent: *t_sent,
                        t_received: arrival.at,
                        via_satellite: *via_satellite,
                        msg,
                        label: CorruptionLabel::Clean,
                        truth_id: *truth_id,
                    })),
                    None => stats.decode_failed += 1,
                }
            }
        }
    }
}

/// Ingest arrivals `range` of `feed` (clamped to it) into `pipe`.
///
/// `rate == None` is closed-loop: the next chunk starts when the last
/// returned. `Some(r)` is open-loop at `r` arrivals a second: arrival
/// `k` is due `k / r` seconds after the start, a chunk is whatever is
/// due (at most [`CHUNK`]), and the generator's lag is taken from the
/// due time, so a stall shows in every chunk it delayed. `after_chunk`
/// runs between chunks, outside both timed steps.
pub fn ingest(
    feed: &Feed,
    range: std::ops::Range<usize>,
    pipe: &mut Pipe,
    tracer: &mut Tracer,
    rate: Option<f64>,
    mut after_chunk: impl FnMut(&mut Pipe, &[Arrival]),
) -> Ingested {
    let len = feed.arrivals.len();
    let arrivals = &feed.arrivals[range.start.min(len)..range.end.min(len)];
    let mut stats = Ingested::default();
    let mut assembler = SentenceAssembler::new();
    let mut decoded: Vec<Decoded> = Vec::with_capacity(CHUNK);
    let per_call = tracer.on();
    let start = Instant::now();
    let mut next = 0usize;
    while next < arrivals.len() {
        let mut end = (next + CHUNK).min(arrivals.len());
        if let Some(rate) = rate {
            let now_s = start.elapsed().as_secs_f64();
            let due_s = next as f64 / rate;
            if now_s < due_s {
                let gap = tracer.enter("gen.pace", next as u64);
                std::thread::sleep(Duration::from_secs_f64((due_s - now_s).min(0.001)));
                tracer.exit(gap);
                continue;
            }
            end = end.min((now_s * rate) as usize + 1).max(next + 1);
            stats.sched_lag_ms.push((now_s - due_s) * 1e3);
        }
        let chunk = &arrivals[next..end];
        let op = (next / CHUNK) as u64;

        let span = tracer.enter("ais.decode", op);
        let t0 = Instant::now();
        decoded.clear();
        decode_chunk(feed, chunk, &mut assembler, &mut decoded, &mut stats);
        let t1 = Instant::now();
        tracer.exit(span);

        let span = tracer.enter("core.push", op);
        for item in &decoded {
            if per_call {
                let c0 = Instant::now();
                stats.events.extend(pipe.push(item));
                stats.push_ns.push(u32::try_from(c0.elapsed().as_nanos()).unwrap_or(u32::MAX));
            } else {
                stats.events.extend(pipe.push(item));
            }
        }
        let t2 = Instant::now();
        tracer.exit(span);

        stats.decode_s += (t1 - t0).as_secs_f64();
        stats.push_s += (t2 - t1).as_secs_f64();
        stats.observations += decoded.len() as u64;
        let span = tracer.enter("gen.between", op);
        after_chunk(pipe, chunk);
        tracer.exit(span);
        next = end;
    }
    stats.wall_s = start.elapsed().as_secs_f64();
    stats.decode_failed += assembler.pending_count() as u64;
    stats
}

/// Seconds the calling thread has spent on a CPU so far, from
/// `/proc/thread-self/schedstat`; `None` where the kernel keeps none.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    Some(stat.split_whitespace().next()?.parse::<u64>().ok()? as f64 / 1e9)
}

/// Event time of an arrival (what the reorder stage keys on).
pub fn event_time(arrival: &Arrival) -> Timestamp {
    match &arrival.payload {
        Payload::Ais { t_sent, .. } => *t_sent,
        Payload::Radar(p) => p.t,
        Payload::Vms(v) => v.t,
    }
}
