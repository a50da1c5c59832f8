//! The three workloads: seeded inputs written to disk, their reference
//! results, and the one operation each workload repeats.
//!
//! Inputs and references are made before anything is timed. The timed
//! operation only ever sees the dot-bracket files.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mcos_core::{srna2, verify};
use mcos_parallel::{pairwise, prna, prna_aligned, PrnaConfig};
use mcos_telemetry::Recorder;
use rna_structure::formats::dot_bracket;
use rna_structure::generate::{self, RrnaConfig};
use rna_structure::mutate::{mutate, MutationConfig};
use rna_structure::{io, ArcStructure};

/// Worker threads every measured operation runs with. One, because the
/// benchmark runs on a few cores of a shared host: on 2 vCPUs, one
/// competing busy thread slowed a 2-worker `worst-800` operation 2.05×
/// and the 2-thread `rrna-family` matrix 1.43×, but their 1-worker
/// forms by 7% and 5%. No 2-worker time holds a 25% bound there.
pub const THREADS: u32 = 1;

/// Worker threads of the traced run's scaling probe: the 2-core target's
/// parallelism, at which `engine.observed_speedup`,
/// `engine.brent_ceiling`, `balance.*` and `pairwise.efficiency` are
/// taken.
pub const SCALING_THREADS: u32 = 2;

/// Table II's generator seeds (GenBank L47585 and U48228).
const FUNGUS_SEED: u64 = 0xF47585;
const MALARIA_SEED: u64 = 0xF48228;

/// A benchmark workload. The names are fixed; later changes cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Self-comparison of the contrived worst case at length 800.
    Worst800,
    /// Table II's cross pair under a quarter-grid memo budget.
    Rrna23sBudgeted,
    /// All pairs over the two Table II templates and two mutants each.
    RrnaFamily,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Worst800,
        Workload::Rrna23sBudgeted,
        Workload::RrnaFamily,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Worst800 => "worst-800",
            Workload::Rrna23sBudgeted => "rrna-23s-budgeted",
            Workload::RrnaFamily => "rrna-family",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One input file of a workload.
#[derive(Debug, Clone)]
pub struct InputFile {
    /// Where the dot-bracket text was written.
    pub path: PathBuf,
    /// Sequence length in nucleotides.
    pub len: u32,
    /// Arc (base-pair) count.
    pub arcs: u32,
}

/// One comparison an operation makes, with its reference score.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Index of the first structure in [`Prepared::files`].
    pub a: usize,
    /// Index of the second structure.
    pub b: usize,
    /// Cells of the `arcs(a) × arcs(b)` memo grid.
    pub grid_cells: u64,
    /// The reference MCOS score.
    pub expected: u32,
}

/// A workload's inputs on disk, its configuration and its references.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// Which workload.
    pub workload: Workload,
    /// The structure files, in load order.
    pub files: Vec<InputFile>,
    /// The comparisons one operation makes: one for the single-pair
    /// workloads, every unordered pair for `rrna-family`.
    pub comparisons: Vec<Comparison>,
    /// The PRNA configuration of a single-pair workload.
    pub config: PrnaConfig,
    /// Where the reference scores come from.
    pub oracle: &'static str,
}

impl Prepared {
    /// Whether the operation is one PRNA comparison (rather than a
    /// score matrix).
    pub fn is_pair(&self) -> bool {
        self.workload != Workload::RrnaFamily
    }
}

/// Makes the workload's inputs from `seed`, writes them under `dir` and
/// computes the reference scores.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let config = PrnaConfig {
        processors: THREADS,
        ..PrnaConfig::default()
    };
    let (named, config, oracle): (Vec<(String, ArcStructure)>, PrnaConfig, &str) = match workload {
        Workload::Worst800 => (
            vec![(
                "worst-case-400-arcs".into(),
                generate::worst_case_nested(400),
            )],
            config,
            "analytic: a self-comparison matches every arc",
        ),
        Workload::Rrna23sBudgeted => {
            let (fungus, malaria) = table2_templates();
            // Seed 0 is the Table II pair itself.
            let (f, m) = if seed == 0 {
                (fungus, malaria)
            } else {
                (
                    edited(&fungus, FUNGUS_SEED, seed, 0),
                    edited(&malaria, MALARIA_SEED, seed, 0),
                )
            };
            // A quarter of the memo grid, from the input alone, so the
            // budget does not move when the schedule does.
            let budget = u64::from(f.num_arcs()) * u64::from(m.num_arcs()) / 4;
            (
                vec![("fungus-23s".into(), f), ("malaria-23s".into(), m)],
                PrnaConfig {
                    mem_budget: Some(budget),
                    ..config
                },
                "the unbounded score: sequential SRNA2, cross-checked by unbounded PRNA",
            )
        }
        Workload::RrnaFamily => {
            let (fungus, malaria) = table2_templates();
            let mut named = Vec::new();
            for (name, template, base) in [
                ("fungus-23s", &fungus, FUNGUS_SEED),
                ("malaria-23s", &malaria, MALARIA_SEED),
            ] {
                named.push((name.to_string(), template.clone()));
                for k in 1..=2 {
                    named.push((
                        format!("{name}-mutant-{k}"),
                        edited(template, base, seed, k),
                    ));
                }
            }
            (named, config, "sequential SRNA2 on every pair")
        }
    };

    let mut files = Vec::new();
    for (name, s) in &named {
        let path = dir.join(format!("{name}.db"));
        let text = dot_bracket::to_string(s) + "\n";
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.push(InputFile {
            path,
            len: s.len(),
            arcs: s.num_arcs(),
        });
    }

    let pairs: Vec<(usize, usize)> = match workload {
        Workload::Worst800 => vec![(0, 0)],
        Workload::Rrna23sBudgeted => vec![(0, 1)],
        Workload::RrnaFamily => (0..named.len())
            .flat_map(|i| (i + 1..named.len()).map(move |j| (i, j)))
            .collect(),
    };
    let mut comparisons = Vec::new();
    for (a, b) in pairs {
        let (s1, s2) = (&named[a].1, &named[b].1);
        let expected = if a == b {
            s1.num_arcs()
        } else {
            srna2::run(s1, s2).score
        };
        if workload == Workload::Rrna23sBudgeted {
            let unbounded = prna(
                s1,
                s2,
                &PrnaConfig {
                    mem_budget: None,
                    ..config
                },
            )
            .score;
            if unbounded != expected {
                return Err(format!(
                    "reference disagreement: SRNA2 scores {expected}, unbounded PRNA {unbounded}"
                ));
            }
        }
        comparisons.push(Comparison {
            a,
            b,
            grid_cells: u64::from(s1.num_arcs()) * u64::from(s2.num_arcs()),
            expected,
        });
    }
    Ok(Prepared {
        workload,
        files,
        comparisons,
        config,
        oracle,
    })
}

/// The Table II templates. The rRNA workloads hold them fixed and let
/// the seed pick the edits applied to them: templates generated afresh
/// from each seed differ in work by up to 1.6x, far more than any
/// usable regression bound.
fn table2_templates() -> (ArcStructure, ArcStructure) {
    (
        generate::rrna_like(&RrnaConfig::fungus(), FUNGUS_SEED),
        generate::rrna_like(&RrnaConfig::malaria(), MALARIA_SEED),
    )
}

/// Variant `k` of a template for `seed`: `mutate`'s default edits (two
/// arc removals, a span deletion, a hairpin insertion).
fn edited(template: &ArcStructure, template_seed: u64, seed: u64, k: u64) -> ArcStructure {
    let mutation_seed = template_seed
        .wrapping_add(seed.wrapping_mul(1000))
        .wrapping_add(k);
    mutate(template, &MutationConfig::default(), mutation_seed)
}

/// Reads and parses one input file.
pub fn load(file: &InputFile) -> Result<ArcStructure, String> {
    io::load_path(&file.path, None)
        .map(|loaded| loaded.structure)
        .map_err(|e| format!("{}: {e}", file.path.display()))
}

/// Where one single-pair operation spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairPhases {
    /// Reading and parsing both files.
    pub parse: Duration,
    /// Preprocessing and column assignment, as PRNA reports it.
    pub preprocess: Duration,
    /// Stage one, as PRNA reports it.
    pub stage_one: Duration,
    /// Stage two plus the traceback (one interval inside
    /// `prna_aligned`), as PRNA reports it.
    pub stage_two_and_traceback: Duration,
    /// `check_mapping` on the recovered alignment.
    pub verify: Duration,
}

/// One single-pair operation: load both files, run PRNA with traceback
/// under `config`, verify the mapping and check it against the
/// reference score.
pub fn pair_op(
    p: &Prepared,
    config: &PrnaConfig,
    recorder: &Recorder,
) -> Result<PairPhases, String> {
    let c = p.comparisons[0];
    let t = Instant::now();
    let s1 = load(&p.files[c.a])?;
    let s2 = load(&p.files[c.b])?;
    let parse = t.elapsed();
    let (outcome, mapping) = prna_aligned(&s1, &s2, config, recorder);
    let t = Instant::now();
    verify::check_mapping(&s1, &s2, &mapping.pairs).map_err(|e| format!("invalid mapping: {e}"))?;
    let verify = t.elapsed();
    if outcome.score != c.expected || mapping.len() != c.expected as usize {
        return Err(format!(
            "score {} with a {}-pair mapping, expected {}",
            outcome.score,
            mapping.len(),
            c.expected
        ));
    }
    Ok(PairPhases {
        parse,
        preprocess: outcome.preprocessing,
        stage_one: outcome.stage_one,
        stage_two_and_traceback: outcome.stage_two,
        verify,
    })
}

/// Where one `rrna-family` operation spent its time.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixPhases {
    /// Reading and parsing every file.
    pub parse: Duration,
    /// `pairwise::score_matrix`.
    pub matrix: Duration,
    /// Comparing the matrix with the references.
    pub compare: Duration,
}

/// One `rrna-family` operation: load every file, score all pairs on
/// `threads` threads and check every entry.
pub fn matrix_op(p: &Prepared, threads: u32) -> Result<MatrixPhases, String> {
    let t = Instant::now();
    let structures = p.files.iter().map(load).collect::<Result<Vec<_>, _>>()?;
    let parse = t.elapsed();
    let t = Instant::now();
    let matrix = pairwise::score_matrix(&structures, threads);
    let matrix_time = t.elapsed();
    let t = Instant::now();
    for (i, s) in structures.iter().enumerate() {
        if matrix.score(i, i) != s.num_arcs() {
            return Err(format!("diagonal entry {i} is not the arc count"));
        }
    }
    for c in &p.comparisons {
        let (got, back) = (matrix.score(c.a, c.b), matrix.score(c.b, c.a));
        if got != c.expected || back != c.expected {
            return Err(format!(
                "pair ({}, {}) scored {got}/{back}, expected {}",
                c.a, c.b, c.expected
            ));
        }
    }
    Ok(MatrixPhases {
        parse,
        matrix: matrix_time,
        compare: t.elapsed(),
    })
}

/// The workload's operation with the recorder off, as the end-to-end
/// loop runs it.
pub fn op(p: &Prepared) -> Result<(), String> {
    if p.is_pair() {
        pair_op(p, &p.config, &Recorder::disabled()).map(drop)
    } else {
        matrix_op(p, THREADS).map(drop)
    }
}
