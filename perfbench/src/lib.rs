//! End-to-end benchmark of Whodunit's back end.
//!
//! One run repeats passes of one workload until its time is up,
//! checking every final report against the batch reference. Between
//! passes it sets the shared input up again, several times over the run,
//! and reports the mean set-up time. An untraced run reports the
//! end-to-end metrics; a traced run reports the per-layer metrics, the
//! layer breakdown of a pass and the tracing overhead. `README.md` beside this crate explains the workloads and
//! the metrics.

pub mod stats;
pub mod trace;
pub mod workloads;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::time::Instant;

use stats::{median, tail, tail_blocks, Tail};
use trace::Tracer;
use whodunit_apps::federation::fleet_epochs;
use workloads::{run_pass, setup, Input, Pass, Scale, Workload};

/// The end-to-end metrics, reported by every workload's untraced run:
/// name and unit.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("events_per_s", "ev/s"),
    ("step_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by every workload's traced run (0
/// where the workload bypasses the layer): name and unit.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("wire.encode.busy_ms", "ms"),
    ("wire.frames", "count"),
    ("wire.bytes_per_event", "B/event"),
    ("collector.enqueue_wire.busy_ms", "ms"),
    ("collector.drain.busy_ms", "ms"),
    ("collector.drain.ns_per_event", "ns/event"),
    ("collector.drain.ns_per_event.small_fleet", "ns/event"),
    ("collector.events", "count"),
    ("collector.batches", "count"),
    ("collector.wire_errors", "count"),
    ("collector.evictions", "count"),
    ("collector.revivals", "count"),
    ("collector.revival_ratio", "ratio"),
    ("collector.peak_resident", "count"),
    ("collector.snapshot.busy_ms", "ms"),
    ("collector.snapshot.ms_p50", "ms"),
    ("collector.snapshot.ms_tail", "ms"),
    ("collector.snapshots", "count"),
    ("collector.finalize.busy_ms", "ms"),
    ("federation.new.busy_ms", "ms"),
    ("federation.feed_round.busy_ms", "ms"),
    ("federation.tick_plain.busy_ms", "ms"),
    ("federation.tick_ckpt.busy_ms", "ms"),
    ("federation.finalize.busy_ms", "ms"),
    ("federation.frames_sent", "count"),
    ("federation.compaction", "ratio"),
    ("federation.peak_resident_leaf", "count"),
    ("federation.peak_resident_regional", "count"),
    ("federation.checkpoints", "count"),
    ("federation.retransmits", "count"),
    ("federation.retransmit_ratio", "ratio"),
    ("federation.frames_lost", "count"),
    ("federation.dup_frames", "count"),
    ("federation.recovery_epochs", "count"),
    ("federation.coverage_ppm.library", "ppm"),
    ("federation.coverage_ppm.ledger", "ppm"),
    ("pipeline.analyze.busy_ms", "ms"),
    ("pipeline.validate.busy_ms", "ms"),
    ("pipeline.index.busy_ms", "ms"),
    ("pipeline.stitch.busy_ms", "ms"),
    ("pipeline.annotate.busy_ms", "ms"),
    ("pipeline.profiles.busy_ms", "ms"),
    ("pipeline.crosstalk-map.busy_ms", "ms"),
    ("pipeline.crosstalk-reduce.busy_ms", "ms"),
    ("pipeline.serialize.busy_ms", "ms"),
    ("pipeline.steals", "count"),
    ("trace.unattributed_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One benchmark invocation.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seeds the recorded input (and the link faults).
    pub seed: u64,
    /// Seconds of passes to measure.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
    /// Fleet size and topology.
    pub scale: Scale,
}

/// Set-ups per untraced run, spread over its passes; `setup_s` is their
/// mean.
pub const SETUP_REPS: usize = 9;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// What a run reports.
pub struct RunResult {
    /// No operation or output check failed.
    pub correct: bool,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations and output checks that failed.
    pub failed: u64,
    /// The metrics, in spec order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
    /// The traced run's spans (empty when untraced).
    pub tracer: Tracer,
}

/// Failure accounting over every pass of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failed_checks: BTreeSet<&'static str>,
    coverage_mismatch: Option<(u64, u128)>,
}

impl Tally {
    fn add(&mut self, p: &Pass) {
        let failed_checks = p.failed_checks();
        self.attempted += p.ops + p.checks.len() as u64;
        self.failed += p.failed_ops + failed_checks.len() as u64;
        self.failed_checks.extend(failed_checks);
        self.coverage_mismatch = self.coverage_mismatch.or(p.coverage_mismatch);
    }
}

/// A pass, the span indices it recorded and the process's peak resident
/// set during it.
struct Measured {
    spans: Range<usize>,
    pass: Pass,
    peak_rss_mb: f64,
}

/// The shared input of one workload, and the time each set-up of it took.
struct Prepared {
    workload: Workload,
    scale: Scale,
    seed: u64,
    input: Option<Input>,
    setup_s: Vec<f64>,
    /// Resident set right after the first set-up, before any pass: the
    /// harness's floor under `peak_rss_mb`.
    floor_mb: f64,
}

impl Prepared {
    fn new(workload: Workload, scale: Scale, seed: u64) -> Prepared {
        let mut p = Prepared {
            workload,
            scale,
            seed,
            input: None,
            setup_s: Vec::new(),
            floor_mb: 0.0,
        };
        p.setup();
        p.floor_mb = proc_status_mb("VmRSS:");
        p
    }

    /// Sets the input up again, dropping the old one first.
    fn setup(&mut self) {
        drop(self.input.take());
        let t = Instant::now();
        self.input = Some(setup(self.workload, &self.scale, self.seed));
        self.setup_s.push(t.elapsed().as_secs_f64());
    }

    fn input(&self) -> &Input {
        self.input.as_ref().expect("set up in new")
    }
}

/// Runs rounds of one pass per tracer until `seconds` of passes are used,
/// not starting a round that the median round so far would carry past
/// them; at least `min_rounds`. Between rounds it repeats the input's
/// set-up until `setups` are done, spread evenly over the passes' time:
/// host speed drifts over seconds, and so the set-ups meet the same mix
/// of speeds as the passes. Returns each tracer's passes. Alternating the
/// tracers within a round exposes each to the same drift.
fn measure(
    prep: &mut Prepared,
    setups: usize,
    tracers: &mut [&mut Tracer],
    seconds: f64,
    min_rounds: usize,
    tally: &mut Tally,
) -> Vec<Vec<Measured>> {
    let mut out: Vec<Vec<Measured>> = tracers.iter().map(|_| Vec::new()).collect();
    let mut round_s = Vec::new();
    loop {
        let done = round_s.iter().sum::<f64>() / seconds;
        let due = 1 + (setups.saturating_sub(1) as f64 * done) as usize;
        while prep.setup_s.len() < due.min(setups) {
            prep.setup();
        }
        let t = Instant::now();
        for (tr, passes) in tracers.iter_mut().zip(&mut out) {
            let from = tr.spans().len();
            reset_peak_rss();
            let pass = run_pass(prep.input(), tr, passes.len() as u64);
            let peak_rss_mb = proc_status_mb("VmHWM:");
            tally.add(&pass);
            passes.push(Measured {
                spans: from..tr.spans().len(),
                pass,
                peak_rss_mb,
            });
        }
        round_s.push(t.elapsed().as_secs_f64());
        let next_end = round_s.iter().sum::<f64>() + median(&round_s);
        if out[0].len() >= min_rounds && next_end > seconds {
            while prep.setup_s.len() < setups {
                prep.setup();
            }
            return out;
        }
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A size from this process's `/proc/self/status` (`VmHWM:` is the
/// peak resident set, `VmRSS:` the current one), in MB.
fn proc_status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so the
/// next reading covers only what runs after this call.
fn reset_peak_rss() {
    // Where the kernel lacks the interface the peak covers the whole
    // process so far, set-ups included.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Runs the benchmark once.
pub fn run(cfg: &RunConfig) -> RunResult {
    let w = cfg.workload;
    let mut lines = Vec::new();
    let mut prep = Prepared::new(w, cfg.scale, cfg.seed);
    let input = prep.input();
    lines.push(format!(
        "{}: seed {} | {} replicas of a {}-client {} s recording | {} epochs, {} change events, {} origins",
        w.name(),
        cfg.seed,
        cfg.scale.replicas,
        cfg.scale.clients,
        cfg.scale.duration_s,
        fleet_epochs(
            input.recording.batches.len(),
            cfg.scale.replicas,
            cfg.scale.stagger
        ),
        input.events,
        input.reference.origins()
    ));

    let mut tally = Tally::default();
    let mut tracer = Tracer::new(cfg.trace);
    let metrics = if cfg.trace {
        traced_metrics(cfg, &mut prep, &mut tracer, &mut tally, &mut lines)
    } else {
        let passes = measure(
            &mut prep,
            SETUP_REPS,
            &mut [&mut tracer],
            cfg.seconds,
            1,
            &mut tally,
        )
        .remove(0);
        end_to_end_metrics(&prep, &passes, &mut lines)
    };

    for name in &tally.failed_checks {
        lines.push(format!("CHECK FAILED: {name}"));
    }
    if let Some((library, ledger)) = tally.coverage_mismatch {
        lines.push(format!(
            "KNOWN DEFECT (not counted as a failure): Federation::coverage_ppm reports {library} ppm \
             while the ledger, summed in u128, gives {ledger} ppm; the u64 product \
             delivered * 1_000_000 saturates at this fleet's cycle mass"
        ));
    }
    lines.push(format!(
        "checks: {} operations and output checks attempted, {} failed (error rate {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    ));
    RunResult {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        lines,
        tracer,
    }
}

fn end_to_end_metrics(
    prep: &Prepared,
    passes: &[Measured],
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let input = prep.input();
    // Throughput over the whole run: host speed drifts over seconds, and
    // a total averages that drift where a median of passes jumps with it.
    let events = input.events as f64 * passes.len() as f64;
    let events_per_s = events / secs(passes.iter().map(|m| m.pass.wall_ns).sum());
    let steps: Vec<f64> = passes
        .iter()
        .flat_map(|m| m.pass.steps_ms.iter().copied())
        .collect();
    // Each block of steps reports its own tail, and the run reports the
    // median of those, so one disturbed block cannot set it.
    let per_pass: Vec<&[f64]> = passes.iter().map(|m| m.pass.steps_ms.as_slice()).collect();
    let tails: Vec<Tail> = tail_blocks(&per_pass).iter().map(|b| tail(b)).collect();
    let step_tail = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>());
    let t = tails[0];
    let tail_note = format!(
        "median over {} blocks of each block's p{} of {} steps ({} beyond it)",
        tails.len(),
        t.pct,
        t.samples,
        t.beyond
    );
    let setups: Vec<String> = prep.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let peak_rss_mb = passes.iter().map(|m| m.peak_rss_mb).fold(0.0, f64::max);
    lines.push(format!(
        "passes {} | set-ups {} s | median step {:.4} ms (no bound: it jumps with host speed) | step_ms_tail is the {tail_note}",
        passes.len(),
        setups.join(" "),
        median(&steps),
    ));
    lines.push(format!(
        "peak resident set during passes {peak_rss_mb:.1} MB, of which {:.1} MB is the harness's floor (resident right after the first set-up)",
        prep.floor_mb
    ));
    let setup_s = prep.setup_s.iter().sum::<f64>() / prep.setup_s.len() as f64;
    let values = [setup_s, events_per_s, step_tail, peak_rss_mb];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name, value, unit })
        .collect()
}

/// Median across passes of a per-pass value.
fn median_of<'a>(passes: impl Iterator<Item = &'a Measured>, f: impl Fn(&Measured) -> f64) -> f64 {
    median(&passes.map(f).collect::<Vec<_>>())
}

fn traced_metrics(
    cfg: &RunConfig,
    prep: &mut Prepared,
    tracer: &mut Tracer,
    tally: &mut Tally,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut passes = measure(
        prep,
        1,
        &mut [&mut Tracer::new(false), tracer],
        cfg.seconds,
        1,
        tally,
    );
    let traced = passes.pop().expect("traced passes");
    let plain = passes.pop().expect("untraced passes");
    let mut v: BTreeMap<&str, f64> = BTreeMap::new();

    let wall = |ps: &[Measured]| median_of(ps.iter(), |m| m.pass.wall_ns as f64);
    v.insert(
        "trace.overhead_pct",
        (wall(&traced) / wall(&plain) - 1.0) * 100.0,
    );

    // Span busy times, per pass.
    let per_pass: Vec<_> = traced
        .iter()
        .map(|m| tracer.totals(m.spans.clone()))
        .collect();
    let self_ms = |name: &str| {
        median(
            &per_pass
                .iter()
                .map(|t| t.get(name).map_or(0, |e| e.1) as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    };
    for &(name, _) in &PER_LAYER {
        if let Some(span) = name.strip_suffix(".busy_ms") {
            if !span.starts_with("pipeline.") || span == "pipeline.analyze" {
                v.insert(name, self_ms(span));
            }
        }
    }
    v.insert("trace.unattributed_ms", self_ms("pass"));

    // Layer counts and pipeline phase times, per pass.
    let keys: BTreeSet<&String> = traced.iter().flat_map(|m| m.pass.counts.keys()).collect();
    for &(name, _) in &PER_LAYER {
        if keys.iter().any(|k| k.as_str() == name) {
            v.insert(
                name,
                median_of(traced.iter(), |m| {
                    m.pass.counts.get(name).copied().unwrap_or(0.0)
                }),
            );
        }
    }
    let drain_ns_per_event = |ps: &[Measured], tr: &Tracer| {
        median_of(ps.iter(), |m| {
            let drain = tr
                .totals(m.spans.clone())
                .get("collector.drain")
                .map_or(0, |e| e.0);
            let events = m
                .pass
                .counts
                .get("collector.events")
                .copied()
                .unwrap_or(0.0);
            if events > 0.0 {
                drain as f64 / events
            } else {
                0.0
            }
        })
    };
    if cfg.workload == Workload::CollectorWire {
        v.insert(
            "collector.drain.ns_per_event",
            drain_ns_per_event(&traced, tracer),
        );
        let snaps: Vec<f64> = traced
            .iter()
            .flat_map(|m| tracer.durations_ms("collector.snapshot", m.spans.clone()))
            .collect();
        let t = tail(&snaps);
        v.insert("collector.snapshot.ms_p50", median(&snaps));
        v.insert("collector.snapshot.ms_tail", t.value);
        lines.push(format!(
            "collector.snapshot.ms_tail is p{} of {} snapshots ({} beyond it)",
            t.pct, t.samples, t.beyond
        ));
        // The same stream at a small fleet: drain cost per event against
        // the working set.
        let small_scale = Scale {
            replicas: cfg.scale.small_replicas,
            ..cfg.scale
        };
        let mut small = Prepared::new(Workload::CollectorWire, small_scale, cfg.seed);
        let mut small_tr = Tracer::new(true);
        let small_passes = measure(
            &mut small,
            1,
            &mut [&mut small_tr],
            (cfg.seconds / 2.0).min(1.0),
            3,
            tally,
        )
        .remove(0);
        v.insert(
            "collector.drain.ns_per_event.small_fleet",
            drain_ns_per_event(&small_passes, &small_tr),
        );
        lines.push(format!(
            "collector.drain: {:.0} ns/event at {} replicas (peak resident {}), {:.0} ns/event at {} replicas (peak resident {})",
            v["collector.drain.ns_per_event"],
            cfg.scale.replicas,
            v["collector.peak_resident"],
            v["collector.drain.ns_per_event.small_fleet"],
            small_scale.replicas,
            small_passes.last().map_or(0.0, |m| m.pass.counts["collector.peak_resident"]),
        ));
    }

    lines.extend(breakdown(tracer, traced.last().expect("one traced pass")));
    lines.push(format!(
        "traced passes {} | untraced passes {} | spans {} | tracing overhead {:.2}%",
        traced.len(),
        plain.len(),
        tracer.spans().len(),
        v["trace.overhead_pct"]
    ));
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: v.get(name).copied().unwrap_or(0.0),
            unit,
        })
        .collect()
}

/// The layer self times of one traced pass and the unattributed
/// remainder, which together make up the pass's wall time.
fn breakdown(tr: &Tracer, m: &Measured) -> Vec<String> {
    let totals = tr.totals(m.spans.clone());
    let pass_ms = totals.get("pass").map_or(0, |e| e.0) as f64 / 1e6;
    let mut out = vec![format!(
        "breakdown of one traced pass: wall {pass_ms:.3} ms"
    )];
    let share = |x: f64| {
        if pass_ms > 0.0 {
            100.0 * x / pass_ms
        } else {
            0.0
        }
    };
    let mut sum = 0.0;
    for (name, &(_, self_ns, n)) in &totals {
        if *name == "pass" {
            continue;
        }
        let x = self_ns as f64 / 1e6;
        sum += x;
        out.push(format!(
            "  {name:<32} {x:>11.3} ms {:>6.2}%  ({n} spans)",
            share(x)
        ));
    }
    let rest = totals.get("pass").map_or(0, |e| e.1) as f64 / 1e6;
    sum += rest;
    out.push(format!(
        "  {:<32} {rest:>11.3} ms {:>6.2}%",
        "unattributed",
        share(rest)
    ));
    out.push(format!(
        "  {:<32} {sum:>11.3} ms {:>6.2}%",
        "sum",
        share(sum)
    ));
    // Batch analysis: split the analyze call by the pipeline's own
    // phase timer.
    if let Some(&(analyze_ns, _, _)) = totals.get("pipeline.analyze") {
        let analyze_ms = analyze_ns as f64 / 1e6;
        let mut phases = 0.0;
        out.push(format!("  pipeline.analyze {analyze_ms:.3} ms, by phase:"));
        for (k, &x) in &m.pass.counts {
            if let Some(phase) = k
                .strip_prefix("pipeline.")
                .and_then(|k| k.strip_suffix(".busy_ms"))
            {
                phases += x;
                out.push(format!("    {phase:<30} {x:>11.3} ms"));
            }
        }
        out.push(format!(
            "    {:<30} {:>11.3} ms",
            "outside phases",
            analyze_ms - phases
        ));
    }
    out
}

/// The run's result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit.
pub fn result_json(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

/// `v` with every digit Rust prints for it (shortest round-trip form).
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a number");
    format!("{v}")
}
