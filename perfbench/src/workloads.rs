//! The four workloads, their shared input, and their output checks.
//!
//! Every workload consumes the same recording: one TPC-W streaming run
//! seeded from the benchmark's seed, replicated into a staggered fleet.
//! Each pass feeds that whole input through one back-end path and
//! compares the final report with the batch reference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use whodunit_apps::federation::{
    fan_in_topology, fleet_epochs, leaf_stream, replica_header, FaultLinkPolicy, FedTopology,
};
use whodunit_apps::tpcw::run_tpcw_streaming;
use whodunit_bench::{fleet_config, fleet_stream};
use whodunit_collector::federation::{
    CleanLinks, FedNodeId, Federation, FederationConfig, FederationOutput, LinkPolicy,
};
use whodunit_collector::{Collector, CollectorConfig, CollectorOutput};
use whodunit_core::cost::CPU_HZ;
use whodunit_core::delta::{EpochBatch, RecordingSink, StreamHeader};
use whodunit_core::oracle::check_federation;
use whodunit_core::pipeline::{analyze, replicate_fleet, PipelineConfig, PipelineReport};
use whodunit_core::stitch::StageDump;
use whodunit_core::wire;
use whodunit_sim::{ChannelFaults, FaultPlan};

use crate::trace::Tracer;

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Emitter encode, wire ingest and live snapshots on one collector.
    CollectorWire,
    /// Leaf → regional → root federation over clean links.
    FederationClean,
    /// The same federation with lossy links and a leaf crash.
    FederationFaults,
    /// Repeated batch `analyze` of the whole fleet.
    BatchAnalyze,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::CollectorWire,
        Workload::FederationClean,
        Workload::FederationFaults,
        Workload::BatchAnalyze,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CollectorWire => "collector-wire",
            Workload::FederationClean => "federation-clean",
            Workload::FederationFaults => "federation-faults",
            Workload::BatchAnalyze => "batch-analyze",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The workload-defining inputs; everything else is a library default.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// TPC-W clients in the recorded run.
    pub clients: u32,
    /// Simulated seconds recorded (one epoch frame per second).
    pub duration_s: u64,
    /// Replicas in the fleet.
    pub replicas: usize,
    /// Epochs between replica start times.
    pub stagger: u64,
    /// Federation regions.
    pub regions: usize,
    /// Leaves per region.
    pub leaves_per_region: usize,
    /// Replicas of the small fleet whose drain cost is traced beside
    /// the full one (`collector-wire` only).
    pub small_replicas: usize,
}

impl Scale {
    /// The benchmark's fleet: 1024 replicas of a 24-client, 40 s run,
    /// 64 leaves in 8 regions.
    pub const FULL: Scale = Scale {
        clients: 24,
        duration_s: 40,
        replicas: 1024,
        stagger: 2,
        regions: 8,
        leaves_per_region: 8,
        small_replicas: 48,
    };

    /// A small fleet for the benchmark's own tests.
    pub const REDUCED: Scale = Scale {
        clients: 8,
        duration_s: 8,
        replicas: 12,
        stagger: 2,
        regions: 2,
        leaves_per_region: 2,
        small_replicas: 4,
    };
}

/// The batch reference every final report is compared with.
pub(crate) struct Reference {
    report: PipelineReport,
    fingerprint: u64,
    stitched: String,
    crosstalk: String,
}

impl Reference {
    fn new(report: PipelineReport) -> Reference {
        Reference {
            fingerprint: report.fingerprint(),
            stitched: report.stitched_text(),
            crosstalk: report.crosstalk_text(),
            report,
        }
    }

    /// Origins (per-transaction profiles) in the reference report.
    pub(crate) fn origins(&self) -> usize {
        self.report.profiles.len()
    }
}

/// A planted leaf crash: leaf, crash tick, recovery tick.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Crash {
    leaf: usize,
    at: u64,
    recover_at: u64,
}

/// What a workload feeds the back end, built during set-up.
pub(crate) enum Feed {
    /// The dense fleet stream, one batch per epoch, for one collector.
    Frames {
        header: StreamHeader,
        stream: Vec<EpochBatch>,
    },
    /// One stream per leaf for the federation.
    Leaves(LeafFeed),
    /// The recorded single-stack dumps, replicated per call.
    Dumps,
}

/// The federation's input: the fleet header, the topology, one stream
/// per leaf, and for `federation-faults` the crash and fault seed.
pub(crate) struct LeafFeed {
    header: StreamHeader,
    topology: FedTopology,
    streams: Vec<Vec<EpochBatch>>,
    epochs: u64,
    crash: Option<Crash>,
    fault_seed: Option<u64>,
}

/// Everything set-up builds for one workload.
pub(crate) struct Input {
    /// The recorded single-stack stream (header and epoch batches).
    pub(crate) recording: RecordingSink,
    /// The recorded single-stack dumps.
    pub(crate) dumps: Vec<StageDump>,
    /// The batch reference over the whole fleet.
    pub(crate) reference: Reference,
    /// Change events in the fleet stream.
    pub(crate) events: u64,
    /// Replicas in the fleet.
    pub(crate) replicas: usize,
    /// The workload's feed.
    pub(crate) feed: Feed,
}

/// Records the shared input and builds `w`'s feed and the batch
/// reference.
pub(crate) fn setup(w: Workload, scale: &Scale, seed: u64) -> Input {
    let mut cfg = fleet_config(scale.clients, scale.duration_s);
    cfg.seed = seed;
    let mut recording = RecordingSink::default();
    let report = run_tpcw_streaming(cfg, CPU_HZ, &mut recording);
    assert_eq!(report.dumps.len(), 3, "all three tiers must dump");
    let dumps = report.dumps;
    let reference = Reference::new(analyze(
        replicate_fleet(&dumps, scale.replicas),
        PipelineConfig::default(),
    ));
    let local_events: u64 = recording.batches.iter().map(EpochBatch::events).sum();
    let events = local_events * scale.replicas as u64;
    let feed = match w {
        Workload::CollectorWire => {
            let (header, stream) = fleet_stream(
                &recording.header,
                &recording.batches,
                scale.replicas,
                scale.stagger,
            );
            Feed::Frames { header, stream }
        }
        Workload::FederationClean | Workload::FederationFaults => leaves_feed(
            &recording,
            scale,
            (w == Workload::FederationFaults).then_some(seed),
        ),
        Workload::BatchAnalyze => Feed::Dumps,
    };
    Input {
        recording,
        dumps,
        reference,
        events,
        replicas: scale.replicas,
        feed,
    }
}

/// The federation feed: per-leaf streams, and with `fault_seed` a
/// crash of leaf 1 a third of the way into its window, recovering 8
/// ticks later.
fn leaves_feed(rec: &RecordingSink, scale: &Scale, fault_seed: Option<u64>) -> Feed {
    let g = rec.header.stages.len();
    let regions = vec![scale.leaves_per_region; scale.regions];
    let (topology, ranges) = fan_in_topology(scale.replicas, g, &regions);
    let epochs = fleet_epochs(rec.batches.len(), scale.replicas, scale.stagger);
    let streams = ranges
        .iter()
        .map(|&(r0, r1)| {
            leaf_stream(
                &rec.header,
                &rec.batches,
                r0,
                r1,
                scale.stagger,
                epochs,
                CPU_HZ,
            )
        })
        .collect();
    let crash = fault_seed.map(|_| {
        let leaf = 1.min(ranges.len() - 1);
        let (r0, r1) = ranges[leaf];
        let start = r0 as u64 * scale.stagger;
        let end = (r1 as u64 - 1) * scale.stagger + rec.batches.len() as u64;
        let at = start + (end - start) / 3;
        Crash {
            leaf,
            at,
            recover_at: at + 8,
        }
    });
    Feed::Leaves(LeafFeed {
        header: replica_header(&rec.header, scale.replicas),
        topology,
        streams,
        epochs,
        crash,
        fault_seed,
    })
}

/// The link-fault plan of `federation-faults`: drop 0.08, dup 0.04,
/// delay 0.08 of 3 ticks on every link, drawn from `seed`.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed ^ 0xfed).default_channel_faults(ChannelFaults {
        drop_p: 0.08,
        dup_p: 0.04,
        delay_p: 0.08,
        delay_cycles: 3,
    })
}

/// One pass of a workload over its whole input.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// From the first encode, feed or analyze call to the final report,
    /// in ns.
    pub(crate) wall_ns: u64,
    /// Per-step latency in ms: frame, global epoch round or analyze
    /// call.
    pub(crate) steps_ms: Vec<f64>,
    /// Operations attempted (steps, queries, finalize).
    pub(crate) ops: u64,
    /// Operations that failed.
    pub(crate) failed_ops: u64,
    /// Output checks, by name.
    pub(crate) checks: Vec<(&'static str, bool)>,
    /// Per-layer counts and ratios read from the layers' own stats.
    pub(crate) counts: BTreeMap<String, f64>,
    /// Coverage in ppm as the library reports it and as the ledger
    /// gives it, when they disagree.
    pub(crate) coverage_mismatch: Option<(u64, u128)>,
}

impl Pass {
    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    fn count(&mut self, name: &str, v: f64) {
        self.counts.insert(name.to_owned(), v);
    }

    /// Names of the checks that failed.
    pub(crate) fn failed_checks(&self) -> Vec<&'static str> {
        self.checks.iter().filter(|c| !c.1).map(|c| c.0).collect()
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn since_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs one pass over `input` through its workload's path. Spans go to
/// `tr` under a `pass` span with request id `rep`, which ends when the
/// final report is out; the output checks run after it.
pub(crate) fn run_pass(input: &Input, tr: &mut Tracer, rep: u64) -> Pass {
    let root = tr.open("pass", None, rep);
    match &input.feed {
        Feed::Frames { header, stream } => collector_pass(input, header, stream, tr, root, rep),
        Feed::Leaves(feed) => federation_pass(input, feed, tr, root, rep),
        Feed::Dumps => analyze_pass(input, tr, root, rep),
    }
}

/// `collector-wire`: per frame encode, `enqueue_wire`, `drain`; a
/// snapshot after every 10th frame; `finalize` at the end.
fn collector_pass(
    input: &Input,
    header: &StreamHeader,
    stream: &[EpochBatch],
    tr: &mut Tracer,
    root: Option<usize>,
    rep: u64,
) -> Pass {
    let mut p = Pass::default();
    let mut c = Collector::new(CollectorConfig::default());
    c.start_wire(&wire::encode_header(header))
        .expect("a freshly encoded header decodes");
    let mut snapshots = 0u32;
    let start = Instant::now();
    for (i, b) in stream.iter().enumerate() {
        let t = Instant::now();
        let frame = tr.span("wire.encode", root, b.seq, || wire::encode_batch(b));
        let accepted = tr.span("collector.enqueue_wire", root, b.seq, || {
            c.enqueue_wire(&frame)
        });
        tr.span("collector.drain", root, b.seq, || c.drain());
        p.steps_ms.push(ms(since_ns(t)));
        p.ops += 1;
        p.failed_ops += u64::from(!matches!(accepted, Ok(true)));
        if (i + 1) % 10 == 0 {
            let snap = tr.span("collector.snapshot", root, b.seq, || c.snapshot());
            black_box(&snap);
            snapshots += 1;
            p.ops += 1;
        }
    }
    let out = tr.span("collector.finalize", root, 0, || c.finalize());
    p.wall_ns = since_ns(start);
    tr.close(root);
    p.ops += 1;
    let s = &out.stats;
    p.count("wire.frames", s.wire_frames as f64);
    p.count("wire.bytes_per_event", ratio(s.wire_bytes, s.events));
    p.count("collector.wire_errors", s.wire_errors as f64);
    p.count("collector.snapshots", snapshots.into());
    p.check("collector.wire_errors_zero", s.wire_errors == 0);
    collector_checks(&mut p, input, &out, rep);
    p.check("collector.events_all_ingested", s.events == input.events);
    p
}

/// Root-collector counts and checks shared by the streaming workloads.
fn collector_checks(p: &mut Pass, input: &Input, out: &CollectorOutput, rep: u64) {
    let s = &out.stats;
    p.count("collector.events", s.events as f64);
    p.count("collector.batches", s.batches as f64);
    p.count("collector.evictions", s.evictions as f64);
    p.count("collector.revivals", s.revivals as f64);
    p.count("collector.revival_ratio", ratio(s.revivals, s.evictions));
    p.count("collector.peak_resident", s.peak_resident as f64);
    p.check("collector.no_fallback", !s.used_fallback);
    p.check(
        "collector.nothing_pending_at_flush",
        s.pending_walks_at_flush == 0 && s.pending_edges_at_flush == 0,
    );
    report_checks(p, &input.reference, &out.report, rep);
}

/// Compares a final report with the batch reference on every
/// byte-identity surface. The fingerprint hashes the stitched, crosstalk
/// and dump texts that every pass compares byte for byte, so it is
/// checked on the first pass (`rep` 0) only.
fn report_checks(p: &mut Pass, reference: &Reference, got: &PipelineReport, rep: u64) {
    if rep == 0 {
        p.check(
            "report.fingerprint",
            got.fingerprint() == reference.fingerprint,
        );
    }
    p.check(
        "report.stitched_text",
        got.stitched_text() == reference.stitched,
    );
    p.check(
        "report.crosstalk_text",
        got.crosstalk_text() == reference.crosstalk,
    );
    p.check(
        "report.dumps_json",
        got.dumps_json == reference.report.dumps_json,
    );
    p.check("report.dict", got.dict == reference.report.dict);
}

/// The federation workloads: one `feed_round` and one `tick` per
/// global epoch, then `finalize`.
fn federation_pass(
    input: &Input,
    feed: &LeafFeed,
    tr: &mut Tracer,
    root: Option<usize>,
    rep: u64,
) -> Pass {
    let policy: Box<dyn LinkPolicy> = match feed.fault_seed {
        Some(seed) => Box::new(FaultLinkPolicy::new(fault_plan(seed))),
        None => Box::new(CleanLinks),
    };
    let mut fed = tr.span("federation.new", root, rep, || {
        Federation::new(
            &feed.header,
            &feed.topology,
            FederationConfig::default(),
            policy,
        )
    });
    let mut p = Pass::default();
    if let Some(c) = feed.crash {
        fed.crash(FedNodeId::Leaf(c.leaf), c.at, Some(c.recover_at));
    }
    let mut cursors = vec![0usize; feed.streams.len()];
    let mut round: Vec<(usize, &EpochBatch)> = Vec::with_capacity(feed.streams.len());
    let start = Instant::now();
    for ge in 0..feed.epochs {
        round.clear();
        for (leaf, stream) in feed.streams.iter().enumerate() {
            if let Some(b) = stream.get(cursors[leaf]).filter(|b| b.epoch == ge) {
                round.push((leaf, b));
                cursors[leaf] += 1;
            }
        }
        let t = Instant::now();
        tr.span("federation.feed_round", root, ge, || fed.feed_round(&round));
        let checkpoints = fed.stats().checkpoints;
        let tick = tr.open("federation.tick_plain", root, ge);
        fed.tick();
        tr.close(tick);
        if fed.stats().checkpoints > checkpoints {
            tr.rename(tick, "federation.tick_ckpt");
        }
        p.steps_ms.push(ms(since_ns(t)));
        p.ops += 1;
    }
    let out = tr.span("federation.finalize", root, 0, || fed.finalize());
    p.wall_ns = since_ns(start);
    tr.close(root);
    p.ops += 1;
    federation_checks(&mut p, input, &out, feed.crash.is_some(), rep);
    p
}

/// Coverage in ppm from the ledger, summed in u128 so a fleet's cycle
/// mass cannot saturate it.
pub(crate) fn ledger_coverage_ppm(out: &FederationOutput) -> u128 {
    let delivered: u128 = out
        .evidence
        .subtrees
        .iter()
        .map(|s| u128::from(s.delivered))
        .sum();
    let truth: u128 = out
        .evidence
        .subtrees
        .iter()
        .map(|s| u128::from(s.truth))
        .sum();
    (delivered * 1_000_000)
        .checked_div(truth)
        .unwrap_or(1_000_000)
}

fn federation_checks(p: &mut Pass, input: &Input, out: &FederationOutput, faulty: bool, rep: u64) {
    let s = &out.stats;
    p.count("federation.frames_sent", s.frames_sent as f64);
    p.count(
        "federation.compaction",
        ratio(s.leaf_events_in, s.root_events_applied),
    );
    p.count("federation.peak_resident_leaf", s.peak_resident_leaf as f64);
    p.count(
        "federation.peak_resident_regional",
        s.peak_resident_regional as f64,
    );
    p.count("federation.checkpoints", s.checkpoints as f64);
    p.count("federation.retransmits", s.retransmits as f64);
    p.count(
        "federation.retransmit_ratio",
        ratio(s.retransmits, s.frames_sent),
    );
    p.count("federation.frames_lost", s.frames_lost as f64);
    p.count("federation.dup_frames", s.dup_frames as f64);
    let recovery = out
        .recovery
        .first()
        .and_then(|r| r.recovered_epoch.map(|e| e.saturating_sub(r.crash_epoch)));
    p.count("federation.recovery_epochs", recovery.unwrap_or(0) as f64);
    let ledger = ledger_coverage_ppm(out);
    p.count("federation.coverage_ppm.library", out.coverage_ppm as f64);
    p.count("federation.coverage_ppm.ledger", ledger as f64);
    if u128::from(out.coverage_ppm) != ledger {
        p.coverage_mismatch = Some((out.coverage_ppm, ledger));
    }

    let lost = out.evidence.subtrees.iter().any(|m| m.delivered != m.truth);
    p.check("ledger.no_mass_lost", !lost && ledger == 1_000_000);
    p.check(
        "ledger.oracle_clean",
        check_federation(&out.evidence).is_empty(),
    );
    p.check("federation.nothing_degraded", out.degraded.is_empty());
    p.check(
        "federation.wire_decode_errors_zero",
        s.wire_decode_errors == 0,
    );
    p.check(
        "federation.events_all_fed",
        s.leaf_events_in == input.events,
    );
    if faulty {
        p.check(
            "faults.injected_and_healed",
            s.frames_lost + s.acks_lost > 0 && s.retransmits > 0,
        );
        p.check(
            "faults.leaf_recovered",
            s.recoveries == 1 && recovery.is_some(),
        );
    }
    collector_checks(p, input, &out.output, rep);
}

/// `batch-analyze`: one `analyze` call over a fresh copy of the fleet;
/// the copy is made outside the timed region.
fn analyze_pass(input: &Input, tr: &mut Tracer, root: Option<usize>, rep: u64) -> Pass {
    let mut p = Pass::default();
    let fleet = tr.span("pipeline.replicate_fleet", root, rep, || {
        replicate_fleet(&input.dumps, input.replicas)
    });
    let t = Instant::now();
    let report = tr.span("pipeline.analyze", root, rep, || {
        analyze(fleet, PipelineConfig::default())
    });
    p.wall_ns = since_ns(t);
    tr.close(root);
    p.steps_ms.push(ms(p.wall_ns));
    p.ops += 1;
    for t in &report.timings {
        p.count(&format!("pipeline.{}.busy_ms", t.phase), ms(t.wall_ns));
    }
    p.count(
        "pipeline.steals",
        report.timings.iter().map(|t| t.steals).sum::<u64>() as f64,
    );
    report_checks(&mut p, &input.reference, &report, rep);
    p
}
