//! End-to-end MCOS benchmark: each operation starts from structure
//! files on disk and ends with a verified result.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client runs operations back to back (a closed loop) on
//! [`workload::THREADS`] worker thread. `--trace 0` reports the
//! end-to-end metrics with the recorder off; `--trace 1` reports the
//! per-layer metrics of a traced run. The last line of standard output
//! is the result object; a full report is written beside the inputs.
//! See `README.md` in this directory.

mod alloc;
mod stats;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use mcos_telemetry::json::Value;
use stats::{measure, median, tail, Sample, TAIL_BEYOND};
use workload::{Prepared, Workload, SCALING_THREADS, THREADS};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Set-ups per run: at least this many, and more while the set-ups so
/// far took under [`SETUP_MIN_SECONDS`]. `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
const SETUP_MIN_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Worst800,
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload = Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{value}' (expected one of {})",
                        names.join(", ")
                    )
                })?
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed must be an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds must be a number")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Inputs and reports live under `work/` in this package's directory.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn run(args: &Args) -> Result<(), String> {
    let name = args.workload.name();
    let dir = work_dir().join(format!("{name}-seed-{}", args.seed));
    let prepared = workload::prepare(args.workload, args.seed, &dir)?;
    println!(
        "perfbench {name}: seed {}, {} s, trace {}",
        args.seed, args.seconds, args.trace as u8
    );
    print_inputs(&prepared);

    let (metrics, attempted, failed, detail) = if args.trace {
        let t = traced::run(&prepared, args.seconds)?;
        print_layers(&t);
        let metrics: Vec<(&str, &str, f64)> = traced::PER_LAYER
            .iter()
            // The result line carries every declared metric; one whose
            // layer this workload does not run reads 0 there, and the
            // report lists it as not applicable.
            .map(|&(n, unit)| (n, unit, t.get(n).unwrap_or(0.0)))
            .collect();
        let not_applicable: Vec<Value> = traced::PER_LAYER
            .iter()
            .filter(|(n, _)| t.get(n).is_none())
            .map(|&(n, _)| Value::from(n))
            .collect();
        let detail = vec![
            ("not_applicable".to_string(), Value::Array(not_applicable)),
            (
                "critical_path".to_string(),
                t.headline.clone().map_or(Value::Null, Value::from),
            ),
            (
                "untraced_alongside".to_string(),
                Value::object(
                    t.context
                        .iter()
                        .map(|&(n, v)| (n.to_string(), Value::from(v))),
                ),
            ),
        ];
        (metrics, t.attempted, t.failed, detail)
    } else {
        end_to_end(&prepared, args.seconds)
    };

    let correct = failed == 0;
    let metric_json = |(n, unit, v): &(&str, &str, f64)| {
        (
            n.to_string(),
            Value::object([
                ("value".to_string(), Value::from(*v)),
                ("unit".to_string(), Value::from(*unit)),
            ]),
        )
    };
    let report = Value::object(
        [
            ("workload".to_string(), Value::from(name)),
            ("seed".to_string(), Value::from(args.seed)),
            ("seconds".to_string(), Value::from(args.seconds)),
            ("trace".to_string(), Value::from(args.trace)),
            ("environment".to_string(), fingerprint()),
            ("inputs".to_string(), inputs_json(&prepared)),
            ("attempted".to_string(), Value::from(attempted)),
            ("failed".to_string(), Value::from(failed)),
            (
                "failed_ratio".to_string(),
                Value::from(failed as f64 / attempted as f64),
            ),
            (
                "metrics".to_string(),
                Value::object(metrics.iter().map(metric_json)),
            ),
        ]
        .into_iter()
        .chain(detail),
    );
    let report_path = dir.join(format!("report-trace-{}.json", args.trace as u8));
    std::fs::write(&report_path, report.to_json_pretty())
        .map_err(|e| format!("{}: {e}", report_path.display()))?;
    println!("report: {}", report_path.display());

    let result = Value::object([
        ("correct".to_string(), Value::from(correct)),
        ("attempted".to_string(), Value::from(attempted)),
        ("failed".to_string(), Value::from(failed)),
        (
            "metrics".to_string(),
            Value::object(metrics.iter().map(metric_json)),
        ),
    ]);
    println!("{}", result.to_json());
    Ok(())
}

type Measured = (
    Vec<(&'static str, &'static str, f64)>,
    usize,
    usize,
    Vec<(String, Value)>,
);

/// The untraced run: the set-ups, then operations back to back until
/// `seconds` have passed.
fn end_to_end(p: &Prepared, seconds: f64) -> Measured {
    let mut attempted = 0;
    let mut failed = 0;
    // A set-up loads every file and runs the first operation untimed as
    // an operation: lazy tables, first thread spawns, first-touch pages.
    let mut setups: Vec<f64> = Vec::new();
    while setups.len() < SETUP_REPEATS || setups.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        let (s, _) = measure(|| {
            for f in &p.files {
                workload::load(f)?;
            }
            workload::op(p)
        });
        attempted += 1;
        failed += usize::from(!s.ok);
        setups.push(s.wall);
    }

    let mut samples: Vec<Sample> = Vec::new();
    let start = Instant::now();
    while samples.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let (s, _) = measure(|| workload::op(p));
        samples.push(s);
    }
    let elapsed = start.elapsed().as_secs_f64();
    attempted += samples.len();
    let ok = samples.iter().filter(|s| s.ok).count();
    failed += samples.len() - ok;

    let walls: Vec<f64> = samples.iter().map(|s| s.wall).collect();
    let heaps: Vec<f64> = samples.iter().map(|s| s.heap as f64).collect();
    let tail = tail(&walls);
    let comparisons = (ok * p.comparisons.len()) as f64;
    let metrics = vec![
        ("op_s", "s", median(&walls)),
        ("comparisons_per_s", "1/s", comparisons / elapsed),
        ("heap_peak_bytes", "bytes", median(&heaps)),
        ("setup_s", "s", median(&setups)),
    ];
    let rss = mcos_telemetry::mem::peak_rss_bytes().unwrap_or(0);
    println!(
        "{} ops in {elapsed:.2} s ({} failed); tail = p{:.1} with {} samples beyond; peak RSS {rss} bytes",
        samples.len(),
        samples.len() - ok,
        tail.percentile,
        tail.beyond
    );
    for (n, unit, v) in &metrics {
        println!("  {n:<20} {v:>16.6} {unit}");
    }
    let detail = vec![
        ("samples".to_string(), Value::from(samples.len())),
        ("setups".to_string(), Value::from(setups.len())),
        ("op_tail_s".to_string(), Value::from(tail.value)),
        (
            "op_tail_percentile".to_string(),
            Value::from(tail.percentile),
        ),
        (
            "op_tail_samples_beyond".to_string(),
            Value::from(tail.beyond),
        ),
        (
            "op_tail_well_defined".to_string(),
            Value::from(tail.beyond >= TAIL_BEYOND),
        ),
        ("setup_samples_s".to_string(), array(setups)),
        ("op_samples_s".to_string(), array(walls)),
        ("peak_rss_bytes".to_string(), Value::from(rss)),
    ];
    (metrics, attempted, failed, detail)
}

fn array<T: Into<Value>>(items: impl IntoIterator<Item = T>) -> Value {
    Value::Array(items.into_iter().map(Into::into).collect())
}

/// The environment every result is measured in.
fn fingerprint() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    Value::object([
        ("nproc".to_string(), Value::from(nproc)),
        ("worker_threads".to_string(), Value::from(THREADS)),
        ("scaling_threads".to_string(), Value::from(SCALING_THREADS)),
        ("cpu_model".to_string(), Value::from(cpu)),
        ("rustc".to_string(), Value::from(env!("PERFBENCH_RUSTC"))),
        (
            "profile".to_string(),
            Value::from(env!("PERFBENCH_PROFILE")),
        ),
        ("simd".to_string(), Value::from(cfg!(feature = "simd"))),
        (
            "git_commit".to_string(),
            Value::from(env!("PERFBENCH_COMMIT")),
        ),
    ])
}

fn inputs_json(p: &Prepared) -> Value {
    let files = p.files.iter().map(|f| {
        Value::object([
            (
                "file".to_string(),
                Value::from(f.path.display().to_string()),
            ),
            ("length".to_string(), Value::from(f.len)),
            ("arcs".to_string(), Value::from(f.arcs)),
        ])
    });
    let comparisons = p.comparisons.iter().map(|c| {
        Value::object([
            ("a".to_string(), Value::from(c.a)),
            ("b".to_string(), Value::from(c.b)),
            ("memo_grid_cells".to_string(), Value::from(c.grid_cells)),
            ("expected_score".to_string(), Value::from(c.expected)),
        ])
    });
    let config = &p.config;
    Value::object([
        ("files".to_string(), array(files)),
        ("comparisons".to_string(), array(comparisons)),
        ("oracle".to_string(), Value::from(p.oracle)),
        ("backend".to_string(), Value::from(config.backend.name())),
        ("kernel".to_string(), Value::from(config.kernel.name())),
        ("policy".to_string(), Value::from(config.policy.name())),
        ("processors".to_string(), Value::from(config.processors)),
        (
            "mem_budget_cells".to_string(),
            config.mem_budget.map_or(Value::Null, Value::from),
        ),
    ])
}

fn print_inputs(p: &Prepared) {
    for f in &p.files {
        println!(
            "  input {} ({} nt, {} arcs)",
            f.path.display(),
            f.len,
            f.arcs
        );
    }
    let grid: u64 = p.comparisons.iter().map(|c| c.grid_cells).sum();
    println!(
        "  {} comparison(s) per op over {grid} memo-grid cells; oracle: {}",
        p.comparisons.len(),
        p.oracle
    );
}

/// The per-layer table of a traced run.
fn print_layers(t: &traced::Traced) {
    println!("  layer metric                          value");
    for &(n, unit) in traced::PER_LAYER {
        match t.get(n) {
            Some(v) => println!("  {n:<36} {v:>16.6} {unit}"),
            None => println!("  {n:<36} {:>16} (layer not run)", "n/a"),
        }
    }
    if let Some(h) = &t.headline {
        println!("  critical path: {h}");
    }
    for (n, v) in &t.context {
        println!("  untraced {n}: {v:.6}");
    }
}
