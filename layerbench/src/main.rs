//! The osarch benchmark: end-to-end capacity and latency of the serving
//! stack and the offline reproduction, plus a traced run that prices each
//! layer through its public functions.
//!
//! ```text
//! osarch-layerbench --workload <swap-whatif|repro-cold>
//!                   --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every line but the last is a human-readable report (load shape,
//! sample counts, failures). The last line is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. The process exits
//! 1 when any correctness check fails and 2 on a usage error.

mod hist;
mod json;
mod layers;
mod repro;
mod served;

use std::process::ExitCode;
use std::time::Instant;

/// The workloads the benchmark runs; see `METRICS.md` for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop over the what-if query space with live spec swaps.
    SwapWhatif,
    /// Full offline reproduction in a fresh child process per repetition.
    ReproCold,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "swap-whatif" => Some(Workload::SwapWhatif),
            "repro-cold" => Some(Workload::ReproCold),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::SwapWhatif => "swap-whatif",
            Workload::ReproCold => "repro-cold",
        }
    }
}

/// What one run measured: operation counts, metrics and report lines.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable report lines printed before the result line.
    pub notes: Vec<String>,
    /// Correctness failures (only the first few are printed).
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn error(&mut self, message: impl Into<String>) {
        self.errors.push(message.into());
    }

    /// Fold another outcome's counts, metrics, notes and errors into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
        self.errors.extend(other.errors);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The command line, checked.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

const USAGE: &str = "usage: osarch-layerbench --workload <swap-whatif|repro-cold> \
                     --seed <n> --seconds <1..=60> --trace <0|1>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1..=60".to_string());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(repro::CHILD_FLAG) {
        return repro::child_main(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("osarch-layerbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let steal_before = host_steal();
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "host: nproc={} | workload={} seed={} seconds={} trace={}",
        nproc(),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let run = match (args.workload, args.trace) {
        (Workload::ReproCold, false) => repro::run(&args),
        (Workload::SwapWhatif, false) => served::run(&args),
        (_, true) => layers::run(&args),
    };
    outcome.absorb(run);
    let steal_after = host_steal();
    let steal =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    outcome.note(format!(
        "operations: attempted={} failed={} | wall {:.1} s, host steal {:.1}%",
        outcome.attempted,
        outcome.failed,
        started.elapsed().as_secs_f64(),
        steal * 100.0
    ));
    for (name, value, unit) in &outcome.metrics {
        outcome.notes.push(format!("  {name} = {value:.6} {unit}"));
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for error in outcome.errors.iter().take(10) {
        println!("FAILED CHECK: {error}");
    }
    if outcome.errors.len() > 10 {
        println!("FAILED CHECK: … {} more", outcome.errors.len() - 10);
    }
    println!("{}", outcome.result_line());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Host cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Reset this process's peak resident set (`VmHWM`) to its current
/// resident set, so a later [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time stolen by the hypervisor, as jiffies `(steal, total)`
/// from `/proc/stat`; the difference across a window tells how much of
/// it the host took away.
pub fn host_steal() -> (u64, u64) {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().next()?.strip_prefix("cpu ")?.to_string();
            let fields: Vec<u64> = line
                .split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect();
            Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
        })
        .unwrap_or((0, 0))
}

/// Nearest-rank quantile `q` in `[0, 1]` of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The median of `values` (sorted in place): the middle value, or the
/// mean of the two middle values.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The median of each base machine's samples, in `Arch::all()` order;
/// a base with no sample is left out.
pub fn base_medians(samples: &[(osarch_cpu::Arch, f64)]) -> Vec<(osarch_cpu::Arch, f64)> {
    osarch_cpu::Arch::all()
        .into_iter()
        .filter_map(|arch| {
            let mut mine: Vec<f64> = samples
                .iter()
                .filter(|s| s.0 == arch)
                .map(|s| s.1)
                .collect();
            (!mine.is_empty()).then(|| (arch, median(&mut mine)))
        })
        .collect()
}

/// The geometric mean, over the base machines, of each base's median.
/// Swap and admission cost differ about 20x between bases, so any single
/// quantile of the pooled samples sits in a wide gap between two bases
/// and jumps across it when one base's samples are slow. Every base's
/// median weighs the same here, and their sampling noise averages out.
pub fn base_geomean(samples: &[(osarch_cpu::Arch, f64)]) -> f64 {
    let medians = base_medians(samples);
    if medians.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = medians.iter().map(|(_, m)| m.ln()).sum();
    (log_sum / medians.len() as f64).exp()
}

/// SplitMix64: the benchmark's input generator. Same seed, same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A seeded permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// The CLI spelling of a primitive (`osarch measure ARCH PRIMITIVE`).
pub fn primitive_cli(primitive: osarch_kernel::Primitive) -> &'static str {
    use osarch_kernel::Primitive;
    match primitive {
        Primitive::NullSyscall => "syscall",
        Primitive::Trap => "trap",
        Primitive::PteChange => "pte",
        Primitive::ContextSwitch => "ctxsw",
    }
}
