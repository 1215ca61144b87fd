//! End-to-end scenario benchmark for slaq.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper|fleet|zoned-apps> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! This is an offline discrete-event simulation, so there is no request
//! loop: one run simulates a scenario's whole horizon, in one process on
//! one thread. A workload is an ensemble of scenarios drawn from the seed
//! (see `workloads.rs`).
//!
//! * `--trace 0` runs every replicate of the ensemble untraced, then
//!   repeats them from the first until `--seconds` have passed, and
//!   reports the end-to-end metrics: medians over every run,
//!   decision-latency percentiles over steady-state cycles, and the
//!   ensemble's mean SLA quality.
//! * `--trace 1` alternates untraced and traced runs (the program's own
//!   recorder, `controller.observe = On`) of the ensemble's first
//!   scenario while another pair fits, and reports the per-layer metrics
//!   read from the recorder's spans and counters. It prints and writes
//!   the per-span export too.
//!
//! Both modes also run the first scenario under `InvariantChecker`, and
//! check: no run returns `Err`, zero invariant violations, and every run
//! of a scenario has bit-identical SLA quality — repeats, the checked run
//! and traced runs alike, since neither checker nor recorder may steer.
//! `--trace 1` also checks that the named spans plus the time outside
//! every cycle add up to the traced wall time. The last line of standard
//! output is one JSON object with the metrics of the chosen mode.

mod harness;
mod stats;
mod workloads;

use harness::{Mode, Run};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Fewest set-ups measured for `setup_s` and `workloads.generate_s`;
/// set-up takes well under a millisecond, so its median needs many
/// samples.
const SETUP_SAMPLES: usize = 101;
/// Fewest untraced/traced pairs in a traced invocation.
const MIN_PAIRS: usize = 2;
/// Samples that must lie beyond a reported percentile.
const TAIL_SAMPLES: usize = 10;
/// Slack, as a share of traced wall time, allowed between the wall time
/// and the named spans plus the event loop (µs truncation per span).
const SPAN_SUM_TOLERANCE: f64 = 0.01;

/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 10] = [
    ("run_s", "s"),
    ("decide_ms_p50", "ms"),
    ("decide_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trans_utility_mean", "utility"),
    ("jobs_outlook_mean", "utility"),
    ("jobs_outlook_min_mean", "utility"),
    ("jobs_goal_met_frac", "frac"),
    ("changes_per_cycle", "changes/cycle"),
];

/// Per-layer metrics, in `BENCHMARK.json` order. Times are per cycle
/// unless the name ends in `_s`; counts are per run.
const PER_LAYER: [(&str, &str); 30] = [
    ("sim.event_loop_s", "s"),
    ("sim.actuate_ms", "ms"),
    ("sim.sense_ms", "ms"),
    ("sim.self_s", "s"),
    ("core.decide_ms", "ms"),
    ("core.glue_ms", "ms"),
    ("utility.equalize_ms", "ms"),
    ("placement.solve_ms", "ms"),
    ("placement.step0_ms", "ms"),
    ("placement.step1_ms", "ms"),
    ("placement.step2_ms", "ms"),
    ("placement.step3_ms", "ms"),
    ("placement.step4_ms", "ms"),
    ("placement.step5_ms", "ms"),
    ("placement.step6_ms", "ms"),
    ("placement.step7_ms", "ms"),
    ("placement.memo_hits", "count"),
    ("placement.heap_rebuilds", "count"),
    ("placement.shard_split_ms", "ms"),
    ("placement.shard_lanes_ms", "ms"),
    ("placement.shard_rebalance_ms", "ms"),
    ("placement.shard_merge_ms", "ms"),
    ("placement.shard_migrations", "count"),
    ("flow.apps_ms", "ms"),
    ("flow.jobs_ms", "ms"),
    ("routing.route_ms", "ms"),
    ("routing.requests", "count"),
    ("workloads.generate_s", "s"),
    ("obs.overhead_frac", "frac"),
    ("obs.unspanned_frac", "frac"),
];

struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(workloads::find(&value).ok_or_else(|| {
                        let names: Vec<&str> =
                            workloads::WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {value:?} (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
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

/// Operations attempted and failed over every run, and the correctness
/// findings; any finding makes the result incorrect.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    findings: Vec<String>,
}

impl Tally {
    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.findings.push(what());
        }
    }

    /// Counts a run's cycles and records a run that produced no quality.
    fn count(&mut self, run: &Run) {
        self.attempted += run.expected_cycles;
        self.failed += run.failed_cycles;
        if let Err(e) = &run.quality {
            self.findings.push(e.clone());
        }
    }

    /// Requires `run` to reproduce the quality of `first`, a run of the
    /// same spec.
    fn same_quality(&mut self, label: &str, run: &Run, first: &Run) {
        if let (Ok(q), Ok(r)) = (&run.quality, &first.quality) {
            self.require(q.identical(r), || {
                format!("{label} quality differs from the first run: {q:?} vs {r:?}")
            });
        }
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match bench(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn bench(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let first = w.spec(args.seed, 0);
    let mut tally = Tally::default();
    let mut out = String::new();

    let checked = harness::run_once(&first, Mode::Checked)?;
    tally.count(&checked);
    tally.require(checked.violations.is_empty(), || {
        format!(
            "InvariantChecker flagged {} violation(s), first: {}",
            checked.violations.len(),
            checked.violations[0]
        )
    });
    let _ = writeln!(
        out,
        "workload {} seed {}: {} replicate(s); the first has {} nodes in {} zone(s), \
         {} app(s), {} jobs, {} cycles of {} s",
        w.name,
        args.seed,
        w.replicates,
        first.cluster.node_count(),
        first.cluster.zone_count(),
        first.apps.len(),
        checked.jobs,
        checked.expected_cycles,
        first.timing.control_period_secs,
    );

    let (metrics, values) = if args.trace {
        let values = per_layer(args, &first, budget, &checked, &mut tally, &mut out)?;
        (&PER_LAYER[..], values)
    } else {
        let values = end_to_end(args, budget, &checked, &mut tally, &mut out)?;
        (&END_TO_END[..], values)
    };

    let _ = writeln!(
        out,
        "cycles: {} attempted, {} failed (cycles_failed_frac {})",
        tally.attempted,
        tally.failed,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    let mut json = String::new();
    for (name, unit) in metrics {
        let value = values.get(name).copied().filter(|v| v.is_finite());
        tally.require(value.is_some(), || {
            format!("metric {name} was not measured")
        });
        let value = value.unwrap_or(0.0);
        let _ = writeln!(out, "{name:<32} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    for f in &tally.findings {
        let _ = writeln!(out, "INCORRECT: {f}");
    }
    print!("{out}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        tally.findings.is_empty(),
        tally.attempted,
        tally.failed
    );
    Ok(())
}

/// Untraced runs of every replicate in turn, then of the replicates again
/// from the first until the budget is spent; end-to-end metrics by name.
fn end_to_end(
    args: &Args,
    budget: Duration,
    checked: &Run,
    tally: &mut Tally,
    out: &mut String,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let w = args.workload;
    let specs: Vec<_> = (0..w.replicates).map(|i| w.spec(args.seed, i)).collect();
    // Set-ups are sampled between the runs, so their median spans the
    // whole measurement like the runs' own.
    let setups_per_run = SETUP_SAMPLES.div_ceil(specs.len());
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut runs: Vec<Run> = Vec::new();
    while runs.len() < specs.len() || start.elapsed() < budget {
        let spec = &specs[runs.len() % specs.len()];
        for _ in 0..setups_per_run {
            setups.push(harness::set_up(spec)?.setup.total_s);
        }
        runs.push(harness::run_once(spec, Mode::Plain)?);
    }
    let (ensemble, repeats) = runs.split_at(specs.len());
    for run in &runs {
        tally.count(run);
    }
    for (i, run) in repeats.iter().enumerate() {
        tally.same_quality("untraced repeat", run, &ensemble[i % ensemble.len()]);
    }
    tally.same_quality("checked run", checked, &ensemble[0]);

    let mut m = BTreeMap::new();
    let walls: Vec<f64> = runs.iter().map(|r| r.wall_s).collect();
    m.insert("run_s", stats::median(&walls).unwrap_or(f64::NAN));

    let (mut kept, mut dropped) = (Vec::new(), 0);
    for run in &runs {
        let cut = stats::warmup_cut(&run.population);
        dropped += cut;
        kept.extend_from_slice(&run.decide_ms[cut..]);
    }
    for (name, q) in [("decide_ms_p50", 0.5), ("decide_ms_p90", 0.9)] {
        let p = stats::percentile_with_tail(&kept, q, TAIL_SAMPLES);
        tally.require(p.is_some(), || {
            format!("{} steady decisions are too few for {name}", kept.len())
        });
        m.insert(name, p.unwrap_or(f64::NAN));
    }

    m.insert("setup_s", stats::median(&setups).unwrap_or(f64::NAN));
    m.insert("peak_rss_mb", peak_rss_mb()?);

    let qualities: Vec<harness::Quality> = ensemble
        .iter()
        .filter_map(|r| r.quality.as_ref().ok().copied())
        .collect();
    for (i, name) in harness::Quality::NAMES.into_iter().enumerate() {
        let values: Vec<f64> = qualities.iter().map(|q| q.values[i]).collect();
        m.insert(name, stats::mean(&values).unwrap_or(f64::NAN));
    }

    let _ = writeln!(
        out,
        "runs: {} untraced ({} replicates, then {} repeats), 1 under InvariantChecker; \
         {} set-ups",
        runs.len(),
        ensemble.len(),
        repeats.len(),
        setups.len()
    );
    let _ = writeln!(
        out,
        "decide samples: {} steady kept, {dropped} warm-up dropped over {} runs \
         (first run cut at cycle {} of {})",
        kept.len(),
        runs.len(),
        stats::warmup_cut(&runs[0].population),
        runs[0].decide_ms.len()
    );
    Ok(m)
}

/// Untraced and traced runs of the ensemble's first spec, alternating
/// while another pair fits in the budget; per-layer metrics by name.
fn per_layer(
    args: &Args,
    first: &slaq_core::ScenarioSpec,
    budget: Duration,
    checked: &Run,
    tally: &mut Tally,
    out: &mut String,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let start = Instant::now();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    loop {
        let pair_start = Instant::now();
        plain.push(harness::run_once(first, Mode::Plain)?);
        traced.push(harness::run_once(first, Mode::Traced)?);
        if plain.len() >= MIN_PAIRS && start.elapsed() + pair_start.elapsed() > budget {
            break;
        }
    }
    for run in plain.iter().chain(&traced) {
        tally.count(run);
    }
    for run in &plain[1..] {
        tally.same_quality("untraced repeat", run, &plain[0]);
    }
    for run in &traced {
        tally.same_quality("traced run", run, &plain[0]);
    }
    tally.same_quality("checked run", checked, &plain[0]);

    let mut per_run: Vec<BTreeMap<&str, f64>> = Vec::new();
    for run in &traced {
        let rows = harness::span_rows(&run.recorder);
        let m = harness::layer_metrics(run, &rows);
        // The named spans' self times (the share not left unspanned) plus
        // the event loop outside every cycle must cover the traced run.
        let covered = 1.0 - m["obs.unspanned_frac"] + m["sim.event_loop_s"] / run.wall_s;
        tally.require((covered - 1.0).abs() <= SPAN_SUM_TOLERANCE, || {
            let unnamed: Vec<&str> = rows
                .iter()
                .filter(|r| r.layer == "?")
                .map(|r| r.span.as_str())
                .collect();
            format!(
                "named spans + event loop cover {:.2} % of traced wall time (unnamed: {unnamed:?})",
                covered * 100.0
            )
        });
        per_run.push(m);
    }
    let mut m = BTreeMap::new();
    for key in per_run[0].keys() {
        let values: Vec<f64> = per_run.iter().map(|r| r[key]).collect();
        m.insert(*key, stats::median(&values).unwrap_or(f64::NAN));
    }
    let self_s: Vec<f64> = plain
        .iter()
        .map(|r| r.wall_s - r.decide_ms.iter().sum::<f64>() / 1e3)
        .collect();
    m.insert("sim.self_s", stats::median(&self_s).unwrap_or(f64::NAN));
    let decisions: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.decide_ms.iter().copied())
        .collect();
    m.insert(
        "core.decide_ms",
        stats::mean(&decisions).unwrap_or(f64::NAN),
    );
    let generate = (0..SETUP_SAMPLES)
        .map(|_| harness::set_up(first).map(|p| p.setup.materialize_s))
        .collect::<Result<Vec<_>, _>>()?;
    m.insert(
        "workloads.generate_s",
        stats::median(&generate).unwrap_or(f64::NAN),
    );
    let wall = |runs: &[Run]| stats::median(&runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    m.insert(
        "obs.overhead_frac",
        match (wall(&traced), wall(&plain)) {
            (Some(t), Some(p)) => t / p - 1.0,
            _ => f64::NAN,
        },
    );

    let _ = writeln!(
        out,
        "runs: {} untraced and {} traced of the first replicate, 1 under InvariantChecker",
        plain.len(),
        traced.len()
    );
    out.push_str(&export_table(
        args,
        traced.last().expect("one pair at least"),
    ));
    Ok(m)
}

/// The traced-run export: every span's count, self and total time, and
/// per-cycle self time, with its layer. Printed, and written to
/// `perfbench/out/<workload>-seed<seed>.layers.tsv`.
fn export_table(args: &Args, run: &Run) -> String {
    let rows = harness::span_rows(&run.recorder);
    let cycles = rows
        .iter()
        .find(|r| r.span == "cycle")
        .map_or(1, |r| r.times.count.max(1)) as f64;
    let mut tsv = String::from("layer\tspan\tcount\tself_ms\ttotal_ms\tself_ms_per_cycle\n");
    for r in &rows {
        let _ = writeln!(
            tsv,
            "{}\t{}\t{}\t{:.3}\t{:.3}\t{:.4}",
            r.layer,
            r.span,
            r.times.count,
            r.times.self_us as f64 / 1e3,
            r.times.total_us as f64 / 1e3,
            r.times.self_us as f64 / 1e3 / cycles
        );
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!(
        "{}-seed{}.layers.tsv",
        args.workload.name, args.seed
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, &tsv)) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let mut table = format!("traced run ({:.3} s wall), per span:\n", run.wall_s);
    for line in tsv.lines() {
        let cols: Vec<&str> = line.split('\t').collect();
        let _ = writeln!(
            table,
            "  {:<10} {:<22} {:>7} {:>10} {:>10} {:>17}",
            cols[0], cols[1], cols[2], cols[3], cols[4], cols[5]
        );
    }
    table
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
