//! `repro-cold`: the offline user's full reproduction, one fresh child
//! process per repetition so every process-wide memo starts empty, as on
//! every `osarch tables` run.

use crate::json::{self, Value};
use crate::{median, quantile, Args, Outcome, Rng};
use osarch_core::{metrics, paper, session, AbsintAnalyzer, Analyzer};
use osarch_cpu::{Arch, ArchSpec};
use osarch_kernel::Primitive;
use std::collections::HashMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

/// First argument that turns the binary into one reproduction child.
pub const CHILD_FLAG: &str = "--repro-child";
/// Separates the reproduction documents from the what-if payloads.
const WHATIF_MARK: &str = "--whatif--\n";
const SETUP_REPS: usize = 9;
/// Fewest repetitions a run makes, however short `--seconds` is: one
/// round of the seven what-if bases.
const MIN_REPS: usize = Arch::COUNT;
/// The quantile of the repetitions' wall times reported as `req_p99_us`.
const TAIL_Q: f64 = 0.9;

/// The base machine of the what-if spec repetition `rep` admits:
/// repetitions cycle through a seeded order of the seven base machines,
/// so each run admits every base about equally often.
fn whatif_base(seed: u64, rep: u64) -> Arch {
    let order = Rng::new(seed ^ 0x000f_f11e).permutation(Arch::COUNT);
    Arch::all()[order[(rep % Arch::COUNT as u64) as usize]]
}

/// The what-if document repetition `rep` admits.
fn whatif_doc(seed: u64, rep: u64) -> String {
    let base = whatif_base(seed, rep);
    let mut rng = Rng::new(seed ^ base.index() as u64);
    crate::served::variant_doc(0, base, &mut rng)
}

/// The child: reproduce everything, admit one what-if spec, print the
/// documents and a closing line of counters.
pub fn child_main(argv: &[String]) -> ExitCode {
    let parse = |i: usize| argv.get(i).and_then(|s| s.parse::<u64>().ok());
    let (Some(seed), Some(rep)) = (parse(0), parse(1)) else {
        eprintln!("usage: {CHILD_FLAG} <seed> <rep>");
        return ExitCode::from(2);
    };
    let started = Instant::now();
    let mut out = metrics::tables_json(&session::all_tables());
    out.push_str(&metrics::bench_json());
    out.push_str(&metrics::lint_json(&Analyzer::new().analyze_all()));
    out.push_str(&metrics::absint_json(&AbsintAnalyzer::new().analyze_all()));
    let repro_us = started.elapsed().as_secs_f64() * 1e6;

    // The admission pipeline of a live `spec-activate`, offline: parse,
    // lint gate, proof gate, then price every primitive.
    let admitted = Instant::now();
    let doc = whatif_doc(seed, rep);
    let (name, spec) = match ArchSpec::from_json(&doc) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("what-if document refused: {e}");
            return ExitCode::from(1);
        }
    };
    let lint_ok = Analyzer::new().analyze_spec(&spec).passes(false);
    let (_, refuted, _) = AbsintAnalyzer::new().analyze_spec(&spec).verdict_counts();
    out.push_str(WHATIF_MARK);
    for p in Primitive::all() {
        out.push_str(&metrics::measure_spec_json(&name, &spec, p));
        out.push('\n');
    }
    let whatif_us = admitted.elapsed().as_secs_f64() * 1e6;
    out.push_str(&format!(
        "{{\"simulations\":{},\"peak_rss_mb\":{:?},\"repro_us\":{repro_us:?},\"whatif_us\":{whatif_us:?},\"lint_ok\":{lint_ok},\"refuted\":{refuted}}}\n",
        osarch_kernel::simulation_count(),
        crate::peak_rss_mb(),
    ));
    print!("{out}");
    ExitCode::SUCCESS
}

/// What one child reported.
#[derive(Debug)]
pub struct ChildRun {
    /// The base machine of the what-if spec the child admitted.
    pub base: Arch,
    pub wall_s: f64,
    pub reproduction: String,
    pub whatif: Vec<String>,
    pub simulations: u64,
    pub peak_rss_mb: f64,
    pub repro_us: f64,
    pub whatif_us: f64,
}

/// Spawn one child and split its output.
pub fn spawn_child(seed: u64, rep: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let started = Instant::now();
    let output = Command::new(exe)
        .args([CHILD_FLAG, &seed.to_string(), &rep.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let wall_s = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!("child exited with {}", output.status));
    }
    let text = String::from_utf8(output.stdout).map_err(|_| "child output is not UTF-8")?;
    let (reproduction, rest) = text
        .split_once(WHATIF_MARK)
        .ok_or("child output lacks the what-if section")?;
    let mut lines: Vec<&str> = rest.lines().collect();
    let tail = lines.pop().ok_or("child output lacks its counters")?;
    let counters = json::parse(tail)?;
    let num = |key: &str| counters.get(key).and_then(Value::as_f64);
    if counters.get("lint_ok").and_then(Value::as_bool) != Some(true) || num("refuted") != Some(0.0)
    {
        return Err("the what-if spec failed an admission gate".to_string());
    }
    Ok(ChildRun {
        base: whatif_base(seed, rep),
        wall_s,
        reproduction: reproduction.to_string(),
        whatif: lines.into_iter().map(str::to_string).collect(),
        simulations: counters
            .get("simulations")
            .and_then(Value::as_u64)
            .ok_or("no simulation count")?,
        peak_rss_mb: num("peak_rss_mb").ok_or("no peak RSS")?,
        repro_us: num("repro_us").ok_or("no reproduction time")?,
        whatif_us: num("whatif_us").ok_or("no what-if time")?,
    })
}

/// DESIGN §5 against `osarch_core::paper`: Tables 2 and 6 exact, Table 1
/// within ±22%.
fn fidelity(reproduction: &str) -> Result<(), String> {
    // The reproduction is four documents back to back, one per line.
    let docs: Vec<&str> = reproduction.lines().collect();
    let tables = json::parse(docs.first().ok_or("no tables document")?)?;
    let bench = json::parse(docs.get(1).ok_or("no bench document")?)?;
    let archs = bench
        .get("architectures")
        .and_then(Value::as_array)
        .ok_or("bench document has no architectures")?;
    let primitives = |arch: Arch| -> Result<&[Value], String> {
        archs
            .iter()
            .find(|a| a.get("arch").and_then(Value::as_str) == Some(&arch.to_string()))
            .and_then(|a| a.get("primitives"))
            .and_then(Value::as_array)
            .ok_or(format!("bench document lacks {arch}"))
    };
    let field = |prims: &[Value], p: Primitive, key: &str| -> Result<f64, String> {
        prims
            .iter()
            .find(|v| v.get("name").and_then(Value::as_str) == Some(p.tag()))
            .and_then(|v| v.get(key))
            .and_then(Value::as_f64)
            .ok_or(format!("bench document lacks {} {key}", p.tag()))
    };
    for (arch, row) in paper::TABLE2_INSTRUCTIONS {
        let prims = primitives(arch)?;
        for (p, want) in Primitive::all().into_iter().zip(row) {
            let got = field(prims, p, "instructions")?;
            if got != want as f64 {
                return Err(format!(
                    "Table 2 {arch} {}: {got} instructions, paper {want}",
                    p.tag()
                ));
            }
        }
    }
    for (arch, row) in paper::TABLE1_US {
        let prims = primitives(arch)?;
        for (p, paper_us) in Primitive::all().into_iter().zip(row) {
            let ratio = field(prims, p, "micros")? / paper_us;
            if !(0.78..=1.22).contains(&ratio) {
                return Err(format!(
                    "Table 1 {arch} {}: ratio {ratio:.3} outside ±22%",
                    p.tag()
                ));
            }
        }
    }
    let table6 = tables
        .as_array()
        .and_then(|all| {
            all.iter().find(|t| {
                t.get("title")
                    .and_then(Value::as_str)
                    .is_some_and(|title| title.starts_with("Table 6"))
            })
        })
        .and_then(|t| t.get("rows"))
        .and_then(Value::as_array)
        .ok_or("tables document has no Table 6")?;
    for (row_index, label) in ["registers", "FP state", "misc state"]
        .into_iter()
        .enumerate()
    {
        let cells = table6
            .get(row_index)
            .and_then(Value::as_array)
            .ok_or(format!("Table 6 lacks its {label} row"))?;
        for (column, (arch, words)) in paper::TABLE6_WORDS.iter().enumerate() {
            let got = cells
                .get(column + 1)
                .and_then(Value::as_str)
                .and_then(|s| s.parse::<u32>().ok());
            if got != Some(words[row_index]) {
                return Err(format!(
                    "Table 6 {arch} {label}: {got:?}, paper {}",
                    words[row_index]
                ));
            }
        }
    }
    Ok(())
}

/// Checks repetitions against one reference reproduction.
struct Checker {
    seed: u64,
    reference: String,
    /// The direct emitter's what-if payloads, per document.
    expected: HashMap<String, Vec<String>>,
}

impl Checker {
    fn new(seed: u64, reference: String) -> Checker {
        Checker {
            seed,
            reference,
            expected: HashMap::new(),
        }
    }

    /// The reproduction must equal the reference and the what-if payloads
    /// the direct emitter.
    fn check(&mut self, rep: u64, child: &ChildRun) -> Result<(), String> {
        let mut problems = Vec::new();
        if child.reproduction != self.reference {
            problems.push("reproduction differs from the reference");
        }
        let doc = whatif_doc(self.seed, rep);
        let want = self.expected.entry(doc.clone()).or_insert_with(|| {
            let (name, spec) = ArchSpec::from_json(&doc).expect("generated documents parse");
            Primitive::all()
                .into_iter()
                .map(|p| metrics::measure_spec_json(&name, &spec, p))
                .collect()
        });
        if &child.whatif != want {
            problems.push("what-if payloads differ from the direct emitter");
        }
        match problems.is_empty() {
            true => Ok(()),
            false => Err(format!("repetition {rep}: {}", problems.join("; "))),
        }
    }
}

/// Check every child outside the timed window; the passing ones remain.
fn check_all(
    checker: &mut Checker,
    children: Vec<(u64, ChildRun)>,
    out: &mut Outcome,
) -> Vec<ChildRun> {
    let mut passed = Vec::new();
    for (rep, child) in children {
        match checker.check(rep, &child) {
            Ok(()) => passed.push(child),
            Err(e) => {
                out.failed += 1;
                out.error(e);
            }
        }
    }
    passed
}

/// Check the cold reproduction children a served workload ran: the
/// first against the paper, every one against the first. Returns the
/// children that passed, in order.
pub fn check_cold<'a>(
    seed: u64,
    children: &'a [(u64, ChildRun)],
    out: &mut Outcome,
) -> Vec<&'a ChildRun> {
    let Some((_, first)) = children.first() else {
        out.error("no cold reproduction ran");
        return Vec::new();
    };
    if let Err(e) = fidelity(&first.reproduction) {
        out.failed += 1;
        out.error(format!("reproduction child: {e}"));
        return Vec::new();
    }
    let mut checker = Checker::new(seed, first.reproduction.clone());
    let mut passed = Vec::new();
    for (rep, child) in children {
        match checker.check(*rep, child) {
            Ok(()) => passed.push(child),
            Err(e) => {
                out.failed += 1;
                out.error(e);
            }
        }
    }
    out.note(format!(
        "cold reproductions between segments: {} of {} passed",
        passed.len(),
        children.len()
    ));
    passed
}

/// The end-to-end run of `repro-cold`.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    out.note("load: one child process at a time, driver_threads=1 | no server: loops=0 compute_threads=0");
    // Set-up: the reference reproduction, checked against the paper.
    let mut setup_s = Vec::new();
    let mut reference = None;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        out.attempted += 1;
        let checked = spawn_child(args.seed, rep as u64).and_then(|child| {
            fidelity(&child.reproduction)?;
            Ok(child.reproduction)
        });
        setup_s.push(started.elapsed().as_secs_f64());
        match checked {
            Ok(reproduction) => reference = Some(reproduction),
            Err(e) => {
                out.failed += 1;
                out.error(format!("reference reproduction: {e}"));
            }
        }
    }
    let Some(reference) = reference else {
        return out;
    };

    let started = Instant::now();
    let mut children = Vec::new();
    // Window repetitions start a base round, so every seven in a row admit
    // each base once.
    let mut rep = SETUP_REPS.next_multiple_of(Arch::COUNT) as u64;
    while children.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        out.attempted += 1;
        match spawn_child(args.seed, rep) {
            Ok(child) => children.push((rep, child)),
            Err(e) => {
                // A child that cannot run will not run next time either.
                out.failed += 1;
                out.error(e);
                break;
            }
        }
        rep += 1;
    }
    let window_s = started.elapsed().as_secs_f64();
    let children = check_all(&mut Checker::new(args.seed, reference), children, &mut out);

    let sample = |f: fn(&ChildRun) -> f64| -> Vec<f64> { children.iter().map(f).collect() };
    let mut wall = sample(|c| c.wall_s);
    let mut repro = sample(|c| c.repro_us / 1e6);
    let mut rss = sample(|c| c.peak_rss_mb);
    out.note(format!(
        "samples: setup n={} | repetitions n={} in {window_s:.3} s | simulations per child {:?}",
        setup_s.len(),
        wall.len(),
        children.first().map(|c| c.simulations)
    ));
    // Repetitions run back to back, so capacity is one over their mean.
    let rate = wall.len() as f64 / wall.iter().sum::<f64>().max(1e-9);
    let mut wall_us: Vec<f64> = wall.iter().map(|s| s * 1e6).collect();
    out.metric("setup_s", median(&mut setup_s), "s");
    out.metric("req_per_s", rate, "1/s");
    out.metric("req_p50_us", median(&mut wall_us), "us");
    // One run holds a few hundred reproductions, too few for a steady
    // p99: the tail reported is the p90.
    out.note(format!(
        "req_p99_us on repro-cold is the p{:.0} of the repetitions",
        TAIL_Q * 100.0
    ));
    out.metric("req_p99_us", quantile(&mut wall, TAIL_Q) * 1e6, "us");
    let admissions: Vec<(Arch, f64)> = children
        .iter()
        .map(|c| (c.base, c.whatif_us / 1e3))
        .collect();
    out.note(format!(
        "what-if admission p50 per base (ms): {:.3?}",
        crate::base_medians(&admissions)
    ));
    out.metric("swap_p50_ms", crate::base_geomean(&admissions), "ms");
    out.metric("repro_p50_s", median(&mut repro), "s");
    out.metric("peak_rss_mb", median(&mut rss), "MB");
    out
}
