//! The traced run: per-layer metrics, from timed public calls and from
//! the `Recorder`, the `mcos.*` registry and the critical-path types of
//! `mcos-telemetry`.
//!
//! The run alternates an untraced and a traced operation for the run's
//! duration, then times each layer's public entry point once more on
//! the same inputs, and the operation itself at [`SCALING_THREADS`]
//! workers for the parallel-scaling metrics. A metric whose layer the
//! workload does not run is reported as not applicable.

use std::time::{Duration, Instant};

use mcos_core::{srna2, traceback, workload as work, Preprocessed};
use mcos_parallel::{prna, PrnaConfig};
use mcos_telemetry::critical_path::{CriticalPath, Explanation, StallBucket, StallReport};
use mcos_telemetry::metrics::{names, publish_run, Registry};
use mcos_telemetry::{Event, EventKind, Recorder};
use rna_structure::ArcStructure;

use crate::stats::{measure, median};
use crate::workload::{self as wl, PairPhases, Prepared, SCALING_THREADS, THREADS};

/// Every per-layer metric, with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rna.parse_s", "s"),
    ("preprocess.build_s", "s"),
    ("balance.assign_s", "s"),
    ("balance.imbalance", "ratio"),
    ("engine.stage_one_s", "s"),
    ("engine.slices", "count"),
    ("engine.cells", "count"),
    ("engine.barrier_waits", "count"),
    ("engine.busy_share", "ratio"),
    ("engine.stall.dependency_wait_share", "ratio"),
    ("engine.stall.barrier_wait_share", "ratio"),
    ("engine.stall.queue_empty_share", "ratio"),
    ("engine.stall.coordinator_share", "ratio"),
    ("engine.stall.untracked_share", "ratio"),
    ("engine.t1_s", "s"),
    ("engine.t_inf_s", "s"),
    ("engine.brent_ceiling", "x"),
    ("engine.observed_speedup", "x"),
    ("engine.speedup_vs_seq", "x"),
    ("kernel.cells_per_s", "cells/s"),
    ("kernel.seq_cells_per_s", "cells/s"),
    ("kernel.slice_cells_max", "count"),
    ("stage_two.s", "s"),
    ("traceback.s", "s"),
    ("mem.memo_cells_allocated", "count"),
    ("mem.memo_bytes_peak", "bytes"),
    ("mem.scratch_bytes_peak", "bytes"),
    ("mem.evicted_cells", "count"),
    ("mem.recompute_slices", "count"),
    ("mem.recompute_cells", "count"),
    ("mem.resident_cells_peak", "count"),
    ("mem.recompute_ratio", "ratio"),
    ("mem.budget_tax", "x"),
    ("verify.s", "s"),
    ("pairwise.pairs", "count"),
    ("pairwise.efficiency", "ratio"),
    ("phase.parse_share", "ratio"),
    ("phase.preprocess_share", "ratio"),
    ("phase.stage_one_share", "ratio"),
    ("phase.stage_two_share", "ratio"),
    ("phase.traceback_share", "ratio"),
    ("phase.verify_share", "ratio"),
    ("telemetry.overhead_ratio", "x"),
];

/// Unbounded operations timed for `mem.budget_tax`.
const UNBOUNDED_REPEATS: usize = 3;
/// Operations timed at [`SCALING_THREADS`] workers.
const SCALING_REPEATS: usize = 3;
/// Repetitions of the sub-millisecond layer calls (preprocess, balance,
/// traceback), whose median is reported.
const LAYER_REPEATS: usize = 5;

/// What a traced run measured.
pub struct Traced {
    /// Per-layer values by name; absent when the workload does not run
    /// the layer.
    pub values: Vec<(&'static str, f64)>,
    /// Operations run (untraced and traced).
    pub attempted: usize,
    /// Operations that failed verification or panicked.
    pub failed: usize,
    /// The critical-path headline of the first traced operation.
    pub headline: Option<String>,
    /// Untraced figures measured alongside, for the report: the
    /// operation's median time and heap peak, and for a budgeted
    /// workload the same pair's unbounded figures.
    pub context: Vec<(&'static str, f64)>,
}

impl Traced {
    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "undeclared {name}"
        );
        self.values.push((name, value));
    }

    /// One untimed operation for the lazy tables, first thread spawns
    /// and first-touch pages; a failure counts like any other.
    fn warm_up(&mut self, p: &Prepared) {
        let (sample, _) = measure(|| wl::op(p));
        self.attempted += 1;
        self.failed += usize::from(!sample.ok);
    }

    /// The value of `name`, when the workload runs its layer.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// Runs the traced mode for `seconds`.
pub fn run(p: &Prepared, seconds: f64) -> Result<Traced, String> {
    if p.is_pair() {
        run_pair(p, seconds)
    } else {
        run_matrix(p, seconds)
    }
}

/// One traced single-pair operation, reduced to what the metrics need
/// so its event log can be dropped before the next one.
struct TracedOp {
    wall: f64,
    phases: PairPhases,
    registry: mcos_telemetry::metrics::Snapshot,
    stalls: StallReport,
}

fn run_pair(p: &Prepared, seconds: f64) -> Result<Traced, String> {
    let mut out = Traced {
        values: Vec::new(),
        attempted: 0,
        failed: 0,
        headline: None,
        context: Vec::new(),
    };
    let c = p.comparisons[0];
    let s1 = wl::load(&p.files[c.a])?;
    let s2 = wl::load(&p.files[c.b])?;
    out.warm_up(p);

    let mut untraced: Vec<(f64, PairPhases)> = Vec::new();
    let mut untraced_heap = Vec::new();
    let mut traced: Vec<TracedOp> = Vec::new();
    let mut critical: Option<Explanation> = None;
    let start = Instant::now();
    while out.attempted <= 1 || start.elapsed().as_secs_f64() < seconds {
        let (sample, phases) = measure(|| wl::pair_op(p, &p.config, &Recorder::disabled()));
        out.attempted += 1;
        match phases {
            Some(ph) => {
                untraced.push((sample.wall, ph));
                untraced_heap.push(sample.heap as f64);
            }
            None => out.failed += 1,
        }

        let recorder = Recorder::enabled();
        let (sample, phases) = measure(|| wl::pair_op(p, &p.config, &recorder));
        out.attempted += 1;
        let Some(phases) = phases else {
            out.failed += 1;
            continue;
        };
        let events = recorder.events();
        let counters = recorder.counters();
        let wall_ns = phases.stage_one.as_nanos() as u64;
        let registry = Registry::new();
        publish_run(&registry, &events, &counters, wall_ns)?;
        let stalls = StallReport::build(&events);
        if critical.is_none() {
            critical = Some(Explanation {
                backend: p.config.backend.name().to_string(),
                kernel: p.config.kernel.name().to_string(),
                threads: THREADS,
                critical_path: critical_path(&events, &s1, &s2),
                wall_ns,
                stalls: stalls.clone(),
            });
        }
        traced.push(TracedOp {
            wall: sample.wall,
            phases,
            registry: registry.snapshot(),
            stalls,
        });
    }
    if untraced.is_empty() || traced.is_empty() {
        return Err("every operation of the traced run failed".into());
    }
    let untraced_phase = |f: fn(&PairPhases) -> Duration| {
        median(
            &untraced
                .iter()
                .map(|(_, ph)| f(ph).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let traced_phase = |f: fn(&PairPhases) -> Duration| {
        median(
            &traced
                .iter()
                .map(|t| f(&t.phases).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let traced_metric =
        |f: &dyn Fn(&TracedOp) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let untraced_wall = median(&untraced.iter().map(|(w, _)| *w).collect::<Vec<_>>());
    out.context.push(("op_s", untraced_wall));
    out.context
        .push(("heap_peak_bytes", median(&untraced_heap)));
    let stage_one_s = untraced_phase(|ph| ph.stage_one);

    // rna::io, core::preprocess and balance, timed on their own. The
    // column split is the one a SCALING_THREADS-worker run makes; one
    // worker owns every column.
    out.set("rna.parse_s", untraced_phase(|ph| ph.parse));
    let (build_s, (p1, p2)) = repeat_timed(|| (Preprocessed::build(&s1), Preprocessed::build(&s2)));
    let (assign_s, assignment) = repeat_timed(|| {
        let weights = work::column_weights(&p1, &p2);
        p.config.policy.assign(&weights, SCALING_THREADS)
    });
    out.set("preprocess.build_s", build_s);
    out.set("balance.assign_s", assign_s);
    out.set("balance.imbalance", assignment.imbalance());

    // parallel::engine (stage one), from the traced operations.
    let cells = traced_metric(&counter(names::ENGINE_CELLS_TOTAL));
    out.set("engine.stage_one_s", stage_one_s);
    out.set(
        "engine.slices",
        traced_metric(&counter(names::ENGINE_SLICES_TOTAL)),
    );
    out.set("engine.cells", cells);
    out.set(
        "engine.barrier_waits",
        traced_metric(&counter(names::ENGINE_BARRIER_WAITS_TOTAL)),
    );
    for (name, bucket) in [
        ("engine.busy_share", StallBucket::Busy),
        (
            "engine.stall.dependency_wait_share",
            StallBucket::DependencyWait,
        ),
        ("engine.stall.barrier_wait_share", StallBucket::BarrierWait),
        ("engine.stall.queue_empty_share", StallBucket::QueueEmpty),
        ("engine.stall.coordinator_share", StallBucket::Coordinator),
        ("engine.stall.untracked_share", StallBucket::Untracked),
    ] {
        out.set(
            name,
            traced_metric(&|t| share(t.stalls.total(bucket), t.stalls.total_wall())),
        );
    }
    let critical = critical.expect("at least one traced operation succeeded");
    out.set("engine.t1_s", ns_to_s(critical.critical_path.t1_ns));
    out.set("engine.t_inf_s", ns_to_s(critical.critical_path.t_inf_ns));
    out.headline = Some(critical.headline());

    // Parallel scaling: the untraced stage one at SCALING_THREADS
    // workers against the measured one, and the ceiling the slice DAG
    // allows at that count.
    out.set(
        "engine.brent_ceiling",
        critical.critical_path.ceiling(SCALING_THREADS),
    );
    let scaled = PrnaConfig {
        processors: SCALING_THREADS,
        ..p.config
    };
    let (mut scaled_walls, mut scaled_stage_one) = (Vec::new(), Vec::new());
    for _ in 0..SCALING_REPEATS {
        let (sample, phases) = measure(|| wl::pair_op(p, &scaled, &Recorder::disabled()));
        out.attempted += 1;
        match phases {
            Some(ph) => {
                scaled_walls.push(sample.wall);
                scaled_stage_one.push(ph.stage_one.as_secs_f64());
            }
            None => out.failed += 1,
        }
    }
    if !scaled_walls.is_empty() {
        out.set(
            "engine.observed_speedup",
            stage_one_s / median(&scaled_stage_one),
        );
        out.context.push(("scaling_op_s", median(&scaled_walls)));
    }

    // core::kernel: the engine's rate, and sequential SRNA2 through the
    // same kernel on the same pair.
    let t = Instant::now();
    let seq = srna2::run_preprocessed_with_kernel(&p1, &p2, p.config.kernel);
    let seq_s = t.elapsed().as_secs_f64();
    if seq.score != c.expected {
        return Err(format!(
            "sequential SRNA2 scored {}, expected {}",
            seq.score, c.expected
        ));
    }
    out.set(
        "engine.speedup_vs_seq",
        seq.timings.stage_one.as_secs_f64() / stage_one_s,
    );
    out.set(
        "kernel.cells_per_s",
        traced_metric(&gauge(names::KERNEL_CELLS_PER_SEC)),
    );
    out.set("kernel.seq_cells_per_s", seq.counters.cells as f64 / seq_s);
    out.set(
        "kernel.slice_cells_max",
        traced_metric(&gauge(names::ENGINE_SLICE_CELLS_MAX)),
    );

    // Stage two alone (`prna` stops before the traceback), and the
    // traceback over the unbounded memo.
    let stage_two_s = prna(&s1, &s2, &p.config).stage_two.as_secs_f64();
    let unbounded = PrnaConfig {
        mem_budget: None,
        ..p.config
    };
    let full = prna(&s1, &s2, &unbounded);
    let (traceback_s, mapping) = repeat_timed(|| traceback::traceback_with(&p1, &p2, &full.memo));
    drop(full);
    if mapping.len() != c.expected as usize {
        return Err(format!(
            "traceback found {} pairs, expected {}",
            mapping.len(),
            c.expected
        ));
    }
    out.set("stage_two.s", stage_two_s);
    out.set("traceback.s", traceback_s);

    // Memo stores, from the registry.
    out.set(
        "mem.memo_cells_allocated",
        traced_metric(&gauge(names::MEM_MEMO_CELLS_ALLOCATED)),
    );
    out.set(
        "mem.memo_bytes_peak",
        traced_metric(&gauge(names::MEM_MEMO_BYTES_PEAK)),
    );
    out.set(
        "mem.scratch_bytes_peak",
        traced_metric(&gauge(names::MEM_SCRATCH_BYTES_PEAK)),
    );

    // core::recompute and engine::{budget, retention}: budgeted only.
    if p.config.mem_budget.is_some() {
        let recompute_cells = traced_metric(&counter(names::MEM_RECOMPUTE_CELLS));
        out.set(
            "mem.evicted_cells",
            traced_metric(&counter(names::MEM_EVICTED_CELLS)),
        );
        out.set(
            "mem.recompute_slices",
            traced_metric(&counter(names::MEM_RECOMPUTE_SLICES)),
        );
        out.set("mem.recompute_cells", recompute_cells);
        out.set(
            "mem.resident_cells_peak",
            traced_metric(&gauge(names::MEM_RESIDENT_CELLS_PEAK)),
        );
        out.set("mem.recompute_ratio", recompute_cells / cells);
        let (mut walls, mut heaps) = (Vec::new(), Vec::new());
        for _ in 0..UNBOUNDED_REPEATS {
            let (sample, ok) = measure(|| wl::pair_op(p, &unbounded, &Recorder::disabled()));
            out.attempted += 1;
            match ok {
                Some(_) => {
                    walls.push(sample.wall);
                    heaps.push(sample.heap as f64);
                }
                None => out.failed += 1,
            }
        }
        if !walls.is_empty() {
            out.set("mem.budget_tax", untraced_wall / median(&walls));
            out.context.push(("unbounded_op_s", median(&walls)));
            out.context
                .push(("unbounded_heap_peak_bytes", median(&heaps)));
        }
    }

    out.set("verify.s", untraced_phase(|ph| ph.verify));

    // The Table III view of the traced operation. `prna_aligned` times
    // stage two and the traceback as one interval; the stage-two part
    // is the stage-two time measured above.
    let joint = traced_phase(|ph| ph.stage_two_and_traceback);
    let stage_two = stage_two_s.min(joint);
    let phases = [
        ("phase.parse_share", traced_phase(|ph| ph.parse)),
        ("phase.preprocess_share", traced_phase(|ph| ph.preprocess)),
        ("phase.stage_one_share", traced_phase(|ph| ph.stage_one)),
        ("phase.stage_two_share", stage_two),
        ("phase.traceback_share", joint - stage_two),
        ("phase.verify_share", traced_phase(|ph| ph.verify)),
    ];
    set_shares(&mut out, &phases);

    out.set(
        "telemetry.overhead_ratio",
        traced_metric(&|t| t.wall) / untraced_wall,
    );
    Ok(out)
}

fn run_matrix(p: &Prepared, seconds: f64) -> Result<Traced, String> {
    let mut out = Traced {
        values: Vec::new(),
        attempted: 0,
        failed: 0,
        headline: None,
        context: Vec::new(),
    };
    let structures = p
        .files
        .iter()
        .map(wl::load)
        .collect::<Result<Vec<_>, _>>()?;
    out.warm_up(p);

    let mut samples = Vec::new();
    let (mut walls, mut heaps) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while out.attempted <= 1 || start.elapsed().as_secs_f64() < seconds {
        let (sample, phases) = measure(|| wl::matrix_op(p, THREADS));
        out.attempted += 1;
        match phases {
            Some(ph) => {
                samples.push(ph);
                walls.push(sample.wall);
                heaps.push(sample.heap as f64);
            }
            None => out.failed += 1,
        }
    }
    if samples.is_empty() {
        return Err("every operation of the traced run failed".into());
    }
    let phase = |f: fn(&wl::MatrixPhases) -> Duration| {
        median(
            &samples
                .iter()
                .map(|ph| f(ph).as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let matrix_s = phase(|ph| ph.matrix);
    out.context.push(("op_s", median(&walls)));
    out.context.push(("heap_peak_bytes", median(&heaps)));

    out.set("rna.parse_s", phase(|ph| ph.parse));
    let (build_s, pre) = repeat_timed(|| {
        structures
            .iter()
            .map(Preprocessed::build)
            .collect::<Vec<_>>()
    });
    out.set("preprocess.build_s", build_s);

    // Each pair through the sequential SRNA2 that `pairwise` runs.
    let (mut seq_s, mut cells, mut slice_max) = (0.0, 0u64, 0u64);
    for c in &p.comparisons {
        let t = Instant::now();
        let run = srna2::run_preprocessed(&pre[c.a], &pre[c.b]);
        seq_s += t.elapsed().as_secs_f64();
        if run.score != c.expected {
            return Err(format!("pair ({}, {}) scored {}", c.a, c.b, run.score));
        }
        cells += run.counters.cells;
        slice_max = slice_max.max(run.counters.max_cells_per_slice);
    }
    out.set("kernel.seq_cells_per_s", cells as f64 / seq_s);
    out.set("kernel.slice_cells_max", slice_max as f64);
    out.set("pairwise.pairs", p.comparisons.len() as f64);

    // Parallel scaling: the matrix at SCALING_THREADS threads against
    // the sum of its pairs' sequential times.
    let mut scaled = Vec::new();
    for _ in 0..SCALING_REPEATS {
        let (sample, phases) = measure(|| wl::matrix_op(p, SCALING_THREADS));
        out.attempted += 1;
        match phases {
            Some(ph) => scaled.push((sample.wall, ph.matrix.as_secs_f64())),
            None => out.failed += 1,
        }
    }
    if !scaled.is_empty() {
        let matrix = median(&scaled.iter().map(|s| s.1).collect::<Vec<_>>());
        out.set(
            "pairwise.efficiency",
            seq_s / (f64::from(SCALING_THREADS) * matrix),
        );
        out.context.push((
            "scaling_op_s",
            median(&scaled.iter().map(|s| s.0).collect::<Vec<_>>()),
        ));
    }

    // `pairwise` does not split SRNA2's stages; stage one (> 99% of
    // SRNA2, Table III) carries both here.
    let phases = [
        ("phase.parse_share", phase(|ph| ph.parse)),
        ("phase.preprocess_share", build_s),
        ("phase.stage_one_share", (matrix_s - build_s).max(0.0)),
        ("phase.verify_share", phase(|ph| ph.compare)),
    ];
    set_shares(&mut out, &phases);
    Ok(out)
}

fn gauge(name: &'static str) -> impl Fn(&TracedOp) -> f64 {
    move |t| t.registry.gauge(name).unwrap_or(0.0)
}

fn counter(name: &'static str) -> impl Fn(&TracedOp) -> f64 {
    move |t| t.registry.counter(name).unwrap_or(0) as f64
}

/// Sets each phase's share of the phases' total.
fn set_shares(out: &mut Traced, phases: &[(&'static str, f64)]) {
    let total: f64 = phases.iter().map(|&(_, s)| s).sum();
    for &(name, s) in phases {
        out.set(name, s / total);
    }
}

/// Median seconds of [`LAYER_REPEATS`] calls of `f`, and the last result.
fn repeat_timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(LAYER_REPEATS);
    let mut last = None;
    for _ in 0..LAYER_REPEATS {
        let t = Instant::now();
        let value = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        last = Some(value);
    }
    (median(&times), last.expect("LAYER_REPEATS > 0"))
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

/// T1 and T∞ of the slice DAG one traced stage one recorded.
///
/// The DAG is the one `critical_path::critical_path` walks: slice
/// `(k1, k2)` depends on every `(c1, c2)` with `c1` nested under `k1`
/// and `c2` under `k2`. Enumerating those edges is quadratic per slice
/// (6.4·10⁹ on `worst-800`), so this evaluates the same longest path
/// with a rectangle maximum over the arc trees instead: `closed[x][y]`
/// is the latest finish among `x`-or-below × `y`-or-below, built from
/// direct children only, which keeps the work linear in slices.
fn critical_path(events: &[Event], s1: &ArcStructure, s2: &ArcStructure) -> CriticalPath {
    let (a1, a2) = (s1.num_arcs() as usize, s2.num_arcs() as usize);
    let mut cost = vec![0u64; a1 * a2];
    let mut seen = vec![false; a1 * a2];
    for e in events {
        if let EventKind::Slice { k1, k2, .. } = e.kind {
            let at = k1 as usize * a2 + k2 as usize;
            cost[at] += e.dur_ns;
            seen[at] = true;
        }
    }
    let children = |s: &ArcStructure| {
        let mut out = vec![Vec::new(); s.num_arcs() as usize];
        for (child, parent) in s.arc_parents().into_iter().enumerate() {
            if let Some(parent) = parent {
                out[parent as usize].push(child);
            }
        }
        out
    };
    let (ch1, ch2) = (children(s1), children(s2));
    // Arcs are indexed by right endpoint, so every child precedes its
    // parent and row-major order visits dependencies first.
    let mut closed = vec![0u64; a1 * a2];
    let mut t_inf_ns = 0;
    for k1 in 0..a1 {
        for k2 in 0..a2 {
            let mut below = 0;
            for &c1 in &ch1[k1] {
                for &c2 in &ch2[k2] {
                    below = below.max(closed[c1 * a2 + c2]);
                }
            }
            let finish = cost[k1 * a2 + k2] + below;
            t_inf_ns = t_inf_ns.max(finish);
            let mut best = finish;
            for &c1 in &ch1[k1] {
                best = best.max(closed[c1 * a2 + k2]);
            }
            for &c2 in &ch2[k2] {
                best = best.max(closed[k1 * a2 + c2]);
            }
            closed[k1 * a2 + k2] = best;
        }
    }
    CriticalPath {
        t1_ns: cost.iter().sum(),
        t_inf_ns,
        path: Vec::new(),
        slices: seen.iter().filter(|&&s| s).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcos_telemetry::critical_path::{critical_path as edge_walk, slice_costs_from_events};
    use rna_structure::generate;

    #[test]
    fn rectangle_maximum_matches_the_edge_walk() {
        let pairs = [
            (
                generate::worst_case_nested(12),
                generate::worst_case_nested(9),
            ),
            (
                generate::random_structure(60, 0.8, 1),
                generate::random_structure(50, 0.9, 2),
            ),
            (
                generate::random_structure(80, 0.6, 3),
                generate::hairpin_chain(6, 3, 2),
            ),
        ];
        for (s1, s2) in pairs {
            let (p1, p2) = (Preprocessed::build(&s1), Preprocessed::build(&s2));
            let mut events = Vec::new();
            for k1 in 0..s1.num_arcs() {
                for k2 in 0..s2.num_arcs() {
                    events.push(Event {
                        tid: 1,
                        seq: events.len() as u32,
                        start_ns: 0,
                        dur_ns: u64::from((k1 * 7 + k2 * 13) % 29 + 1),
                        kind: EventKind::Slice {
                            k1,
                            k2,
                            level: p1.level_of(k1).max(p2.level_of(k2)),
                            cells: 1,
                        },
                    });
                }
            }
            let expected = edge_walk(&slice_costs_from_events(&events), |k1, k2, sink| {
                let (lo1, hi1) = p1.under_range[k1 as usize];
                let (lo2, hi2) = p2.under_range[k2 as usize];
                for c1 in lo1..hi1 {
                    for c2 in lo2..hi2 {
                        sink(c1, c2);
                    }
                }
            });
            let got = critical_path(&events, &s1, &s2);
            assert_eq!(
                (got.t1_ns, got.t_inf_ns, got.slices),
                (expected.t1_ns, expected.t_inf_ns, expected.slices)
            );
        }
    }
}
