//! `perfbench`: the repository's benchmark of solo, batched and served
//! factorization through the public `calu` API.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload lu_coarse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics, with
//! `--trace 1` the per-layer metrics of a separate traced pass. Every
//! output is checked; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod check;
mod closed;
mod host;
mod inputs;
mod layers;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use calu::{Error, Report};

use crate::layers::KernelRates;
use crate::stats::Summary;
use crate::trace::Tracer;

/// Worker threads of every solver (the benchmark host has two cores).
pub const THREADS: usize = 2;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["lu_coarse", "lu_fine", "batch_sweep", "serve_open"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const E2E: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("gflops", "Gflop/s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. A workload that does
/// not drive a layer reports its metrics as 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("facade.outside_s", "s"),
    ("matrix.to_tiles_s", "s"),
    ("dag.build_s", "s"),
    ("dag.tasks", "count"),
    ("dag.critical_path_s", "s"),
    ("kernels.gemm_gflops", "Gflop/s"),
    ("kernels.trsm_gflops", "Gflop/s"),
    ("kernels.panel_gflops", "Gflop/s"),
    ("exec.update_busy_s", "s"),
    ("exec.panel_busy_s", "s"),
    ("exec.lu_busy_s", "s"),
    ("exec.update_gflops", "Gflop/s"),
    ("exec.makespan_s", "s"),
    ("exec.idle_frac", "fraction"),
    ("exec.cp_ratio", "ratio"),
    ("sched.dynamic_frac", "fraction"),
    ("sched.steals", "count"),
    ("sched.failed_steal_rate", "fraction"),
    ("sched.drain_ns_per_task", "ns"),
    ("batch.spawn_s", "s"),
    ("batch.co_scheduled", "count"),
    ("batch.small_makespan_sum_s", "s"),
    ("batch.large_makespan_sum_s", "s"),
    ("batch.busy_frac", "fraction"),
    ("serve.submit_p50_s", "s"),
    ("serve.submit_p99_s", "s"),
    ("serve.factor_p50_s", "s"),
    ("serve.wait_p50_s", "s"),
    ("serve.wait_hi_p50_s", "s"),
    ("serve.latency_p50_s", "s"),
    ("serve.latency_tail_s", "s"),
    ("serve.latency_hi_p50_s", "s"),
    ("serve.backlog_max", "count"),
    ("serve.refused", "count"),
    ("loadgen.late_p99_s", "s"),
    ("trace.overhead_frac", "fraction"),
];

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <lu_coarse|lu_fine|batch_sweep|serve_open> --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
                "--workload" => return Err(bad("unknown workload")),
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| bad("not a whole number"))?,
                    )
                }
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                    if !(s > 0.0 && s <= 3600.0) {
                        return Err(bad("must lie in (0, 3600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("must be 0 or 1")),
                    })
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// Correctness and failure counts of one run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (calls, batch items, served jobs).
    pub attempted: u64,
    /// Operations that failed, were refused or failed their check.
    pub failed: u64,
    /// Outputs that failed their correctness check.
    pub bad: u64,
    /// Largest scaled residual seen.
    pub worst: f64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Record a scaled residual; whether it passes.
    pub fn passes(&mut self, scaled: f64) -> bool {
        self.worst = self.worst.max(scaled);
        check::passes(scaled)
    }

    /// Count `n` failed operations.
    pub fn fail(&mut self, n: u64, msg: String) {
        self.failed += n;
        if self.errors.len() < 10 {
            self.errors.push(msg);
        }
    }

    /// Count an output that failed its check.
    pub fn bad_output(&mut self, msg: String) {
        self.bad += 1;
        self.fail(1, msg);
    }

    /// Check one LU output (its factors are dropped); whether it passed.
    pub fn lu_item(
        &mut self,
        r: &mut Report,
        a: &calu::matrix::DenseMatrix,
        rhs: &[f64],
        tracer: &mut Tracer,
    ) -> bool {
        self.attempted += 1;
        let Some(f) = r.factorization.take() else {
            self.bad_output("a report without factors".into());
            return false;
        };
        let scaled = tracer.time("check.residual", self.attempted, || {
            check::scaled_residual(a, &check::lu_solve(&f, rhs), rhs)
        });
        let ok = self.passes(scaled);
        if !ok {
            self.bad_output(format!("n={} scaled residual {scaled:e}", a.rows()));
        }
        ok
    }

    /// Check the result of one `Solver::run`; the report of a passing
    /// output, without its factors.
    pub fn lu_report(
        &mut self,
        r: Result<Report, Error>,
        a: &calu::matrix::DenseMatrix,
        rhs: &[f64],
        tracer: &mut Tracer,
    ) -> Option<Report> {
        match r {
            Ok(mut rep) => self.lu_item(&mut rep, a, rhs, tracer).then_some(rep),
            Err(e) => {
                self.attempted += 1;
                self.fail(1, format!("Solver::run failed: {e}"));
                None
            }
        }
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
    invalid: Vec<String>,
    tally: Tally,
}

impl Outcome {
    /// Set an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, v: f64) {
        debug_assert!(E2E.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, v);
    }

    /// Set a per-layer metric.
    pub fn layer(&mut self, name: &'static str, v: f64) {
        debug_assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.metrics.insert(name, v);
    }

    /// Log a timing's median and tail with its sample count.
    pub fn timing(&mut self, s: &Summary, what: &str) {
        self.note(format!("{what}: {}", s.describe()));
    }

    /// The standalone kernel rung.
    pub fn kernels(&mut self, r: KernelRates) {
        self.layer("kernels.gemm_gflops", r.gemm);
        self.layer("kernels.trsm_gflops", r.trsm);
        self.layer("kernels.panel_gflops", r.panel);
    }

    /// A line for the result file and the log.
    pub fn note(&mut self, s: String) {
        self.notes.push(s);
    }

    /// Record which open-loop phases were invalid.
    pub fn validity(&mut self, phases: &[&Result<(), String>]) {
        self.invalid
            .extend(phases.iter().filter_map(|p| p.as_ref().err().cloned()));
    }

    /// Attach the correctness tally.
    pub fn finish(mut self, tally: Tally) -> Outcome {
        self.tally = tally;
        self
    }
}

/// Run one workload.
fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    use closed::SoloShape;
    match args.workload.as_str() {
        "lu_coarse" => closed::solo(SoloShape { n: 2000, b: 100 }, args, tracer),
        "lu_fine" => closed::solo(SoloShape { n: 1024, b: 16 }, args, tracer),
        "batch_sweep" => closed::batch(args, tracer),
        "serve_open" => serve::serve_open(args, tracer),
        w => unreachable!("workload {w} passed validation"),
    }
}

/// A metric name: a letter or digit, then at most 63 letters, digits,
/// `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    let mut c = s.chars();
    c.next().is_some_and(|f| f.is_ascii_alphanumeric())
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(table: &[(&str, &str)], metrics: &BTreeMap<&str, f64>) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                metrics[name],
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let host = host::Host::probe();
    let mut tracer = Tracer::new(Instant::now(), args.trace);
    let out = run(&args, &mut tracer);

    let mut metrics = out.metrics;
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &E2E };
    if !args.trace {
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
    }
    let mut not_driven = Vec::new();
    for (name, _) in table {
        if !metrics.contains_key(name) {
            // reachable only in traced runs: every workload sets every
            // end-to-end metric
            assert!(
                args.trace,
                "workload {} did not report {name}",
                args.workload
            );
            metrics.insert(name, 0.0);
            not_driven.push(*name);
        }
    }
    metrics.retain(|k, _| table.iter().any(|(n, _)| n == k));
    let non_finite: Vec<&str> = metrics
        .iter()
        .filter(|(_, v)| !v.is_finite())
        .map(|(k, _)| *k)
        .collect();

    let tally = &out.tally;
    let correct = tally.bad == 0 && non_finite.is_empty();
    let mut log = String::new();
    let _ = writeln!(
        log,
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        log,
        "# host nproc={} cpu={} calibration_secs={} commit={} threads={THREADS}",
        host.nproc,
        json_str(&host.cpu_model),
        host.calibration_secs,
        host.commit
    );
    for n in &out.notes {
        let _ = writeln!(log, "# {n}");
    }
    let _ = writeln!(
        log,
        "# checked {} operations: {} failed, {} outputs failed the residual check, worst scaled residual {:.3}",
        tally.attempted, tally.failed, tally.bad, tally.worst
    );
    for e in &tally.errors {
        let _ = writeln!(log, "# failure: {e}");
    }
    if !not_driven.is_empty() {
        let _ = writeln!(
            log,
            "# not driven by this workload (reported as 0): {}",
            not_driven.join(" ")
        );
    }
    for reason in &out.invalid {
        let _ = writeln!(log, "# INVALID open-loop phase: {reason}");
    }
    for (name, unit) in table {
        let _ = writeln!(log, "{name} {} {unit}", metrics[name]);
    }
    if args.trace {
        let _ = writeln!(log, "# span self time: name count total_s self_s");
        for (name, t) in tracer.layer_times() {
            let _ = writeln!(
                log,
                "#   {name} {} {:.6} {:.6}",
                t.count, t.total, t.self_time
            );
        }
    }
    print!("{log}");

    let stem = format!(
        ".bench_results/{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let write = |path: String, body: &str| {
        if let Err(e) =
            std::fs::create_dir_all(".bench_results").and_then(|_| std::fs::write(&path, body))
        {
            eprintln!("perfbench: could not write {path}: {e}");
        }
    };
    if args.trace {
        write(format!("{stem}.spans.tsv"), &tracer.to_tsv());
    }

    if !non_finite.is_empty() {
        eprintln!("perfbench: non-finite metrics {non_finite:?}; no result");
        write(format!("{stem}.log"), &log);
        std::process::exit(1);
    }
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(table, &metrics)
    );
    write(format!("{stem}.log"), &format!("{log}{result}\n"));
    write(
        format!("{stem}.json"),
        &format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": {}, \"calibration_secs\": {}, \"commit\": {}}}, \"invalid_phases\": [{}], \"result\": {result}}}\n",
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            host.nproc,
            json_str(&host.cpu_model),
            host.calibration_secs,
            json_str(&host.commit),
            out.invalid.iter().map(|r| json_str(r)).collect::<Vec<_>>().join(", ")
        ),
    );
    println!("{result}");
    if !correct || tally.failed > 0 {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_and_units_use_the_allowed_charset() {
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        }
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(!valid_unit("µs"));
        assert!(!valid_unit(""));
    }

    #[test]
    fn metric_names_are_unique_across_tables() {
        let mut all: Vec<&str> = E2E
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let quoted = |s: &str| format!("\"{s}\"");
        for w in WORKLOADS {
            assert!(text.contains(&quoted(w)), "workload {w} missing");
        }
        for (name, unit) in E2E.iter().chain(PER_LAYER.iter()) {
            assert!(text.contains(&quoted(name)), "metric {name} missing");
            assert!(text.contains(&quoted(unit)), "unit {unit} missing");
        }
        let declared = text.matches("\"name\"").count();
        assert_eq!(declared, WORKLOADS.len() + E2E.len() + PER_LAYER.len());
    }

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload lu_fine --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("lu_fine", 7, 10.0, true)
        );
        assert!(parse("--workload nope --seed 7 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload lu_fine --seed -1 --seconds 10 --trace 1").is_err());
        assert!(parse("--workload lu_fine --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload lu_fine --seed 1 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload lu_fine --seed 1 --seconds 10").is_err());
    }
}
