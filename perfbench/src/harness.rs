//! Running one workload once, timed from outside at public calls:
//! `ScenarioSpec::materialize`, `Scenario::build`, `Simulator::run`, and
//! every `Controller::control_delta` through the [`Timed`] wrapper.

use crate::stats::{self, SpanTimes};
use slaq_core::{ObserveSpec, Scenario, ScenarioSpec};
use slaq_obs::Recorder;
use slaq_placement::{Placement, SolveDelta};
use slaq_sim::{ControlInputs, Controller, InvariantChecker, MetricsSink, SimReport, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

/// How a run is instrumented.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// Tracing off: the end-to-end timings.
    Plain,
    /// The program's recorder on (`controller.observe = On`).
    Traced,
    /// Tracing off, every placement re-checked by `InvariantChecker`.
    Checked,
}

/// A controller [`Timed`] can wrap: the scenario's own, or the same
/// under `InvariantChecker`.
pub trait Inner {
    /// The controller to drive.
    fn controller(&mut self) -> &mut dyn Controller;

    /// Invariant violations flagged so far.
    fn violations(&self) -> &[String] {
        &[]
    }
}

impl Inner for Box<dyn Controller> {
    fn controller(&mut self) -> &mut dyn Controller {
        self.as_mut()
    }
}

impl Inner for InvariantChecker {
    fn controller(&mut self) -> &mut dyn Controller {
        self
    }

    fn violations(&self) -> &[String] {
        InvariantChecker::violations(self)
    }
}

/// Times each decision of the wrapped controller and records what the
/// decision saw. Observes only: the placement passes through untouched.
pub struct Timed<C> {
    inner: C,
    decide_ms: Vec<f64>,
    population: Vec<usize>,
    flagged: Vec<bool>,
}

impl<C: Inner> Timed<C> {
    fn new(inner: C) -> Self {
        Timed {
            inner,
            decide_ms: Vec::new(),
            population: Vec::new(),
            flagged: Vec::new(),
        }
    }

    fn timed(
        &mut self,
        inputs: &ControlInputs<'_>,
        decide: impl FnOnce(&mut dyn Controller) -> Placement,
    ) -> Placement {
        let population = inputs.jobs.jobs().iter().filter(|j| j.is_active()).count();
        self.population.push(population);
        let before = self.inner.violations().len();
        let start = Instant::now();
        let next = decide(self.inner.controller());
        self.decide_ms.push(start.elapsed().as_secs_f64() * 1e3);
        // A full collector can no longer tell, so it flags every cycle.
        let after = self.inner.violations().len();
        self.flagged
            .push(after > before || after >= InvariantChecker::MAX_VIOLATIONS);
        next
    }

    /// Runs `sim` to its horizon under this wrapper; the wall time, the
    /// outcome, and what the wrapper recorded.
    fn drive(mut self, sim: &mut Simulator) -> (f64, Result<SimReport, String>, Decisions) {
        let start = Instant::now();
        let result = sim.run(&mut self).map_err(|e| e.to_string());
        let wall_s = start.elapsed().as_secs_f64();
        let decisions = Decisions {
            violations: self.inner.violations().to_vec(),
            decide_ms: self.decide_ms,
            population: self.population,
            flagged: self.flagged,
        };
        (wall_s, result, decisions)
    }
}

/// What [`Timed`] recorded over one run.
struct Decisions {
    decide_ms: Vec<f64>,
    population: Vec<usize>,
    flagged: Vec<bool>,
    violations: Vec<String>,
}

impl<C: Inner> Controller for Timed<C> {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        self.timed(inputs, |c| c.control(inputs, metrics))
    }

    fn control_delta(
        &mut self,
        inputs: &ControlInputs<'_>,
        delta: Option<&SolveDelta>,
        metrics: &mut MetricsSink,
    ) -> Placement {
        self.timed(inputs, |c| c.control_delta(inputs, delta, metrics))
    }

    fn set_recorder(&mut self, recorder: Recorder) {
        self.inner.controller().set_recorder(recorder);
    }
}

/// SLA outcome of one run. Deterministic for a given spec, so runs of
/// the same spec must agree bit for bit.
#[derive(Clone, Copy, Debug)]
pub struct Quality {
    /// The quality metrics, in [`Quality::NAMES`] order.
    pub values: [f64; 5],
    /// Control cycles run.
    pub cycles: usize,
}

impl Quality {
    /// The quality metrics' names, in `BENCHMARK.json` order: the means of
    /// the `trans_utility` (response-time class), `jobs_outlook`
    /// (completion-time class) and `jobs_outlook_min` (worst-off job)
    /// series, `goals_met / submitted`, and `total_changes / cycles`.
    pub const NAMES: [&'static str; 5] = [
        "trans_utility_mean",
        "jobs_outlook_mean",
        "jobs_outlook_min_mean",
        "jobs_goal_met_frac",
        "changes_per_cycle",
    ];

    fn of(report: &SimReport) -> Result<Self, String> {
        let series_mean = |name: &str| {
            let values: Vec<f64> = report
                .metrics
                .series(name)
                .iter()
                .map(|&(_, v)| v)
                .collect();
            stats::mean(&values).ok_or_else(|| format!("series {name} is empty"))
        };
        let stats = &report.job_stats;
        if stats.submitted == 0 || report.cycles == 0 {
            return Err("no job submitted or no cycle run".into());
        }
        Ok(Quality {
            values: [
                series_mean("trans_utility")?,
                series_mean("jobs_outlook")?,
                series_mean("jobs_outlook_min")?,
                stats.goals_met as f64 / stats.submitted as f64,
                report.total_changes as f64 / report.cycles as f64,
            ],
            cycles: report.cycles,
        })
    }

    /// Bit-for-bit equality of every metric and the cycle count.
    pub fn identical(&self, other: &Quality) -> bool {
        self.cycles == other.cycles
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// Wall times of set-up, in seconds.
#[derive(Clone, Copy, Debug)]
pub struct Setup {
    /// `ScenarioSpec::materialize`: validation and workload generation.
    pub materialize_s: f64,
    /// Materialize, `Scenario::build` and `Scenario::controller` together.
    pub total_s: f64,
}

/// Everything measured in one run.
pub struct Run {
    /// Wall time of `Simulator::run`.
    pub wall_s: f64,
    /// Per-cycle decision latency.
    pub decide_ms: Vec<f64>,
    /// Active jobs each decision saw.
    pub population: Vec<usize>,
    /// Cycles the horizon schedules.
    pub expected_cycles: usize,
    /// Cycles that failed (flagged, or lost to an `Err`).
    pub failed_cycles: usize,
    /// Violation messages from the invariant checker.
    pub violations: Vec<String>,
    /// The SLA outcome, or why the run produced none.
    pub quality: Result<Quality, String>,
    /// The run's recorder (enabled on traced runs only).
    pub recorder: Recorder,
    /// Jobs the workload generated.
    pub jobs: usize,
}

/// A scenario ready to run, with what setting it up took.
pub struct Prepared {
    /// The materialized scenario.
    pub scenario: Scenario,
    /// Its simulator.
    pub sim: Simulator,
    /// Its controller.
    pub controller: Box<dyn Controller>,
    /// Set-up times.
    pub setup: Setup,
}

/// Set up `spec`: materialize, build and construct the controller.
pub fn set_up(spec: &ScenarioSpec) -> Result<Prepared, String> {
    let start = Instant::now();
    let scenario = spec.materialize().map_err(|e| e.to_string())?;
    let materialize_s = start.elapsed().as_secs_f64();
    let sim = scenario.build().map_err(|e| e.to_string())?;
    let controller = scenario.controller();
    let setup = Setup {
        materialize_s,
        total_s: start.elapsed().as_secs_f64(),
    };
    Ok(Prepared {
        scenario,
        sim,
        controller,
        setup,
    })
}

/// Set up and run `spec` once to its horizon.
pub fn run_once(spec: &ScenarioSpec, mode: Mode) -> Result<Run, String> {
    let mut spec = spec.clone();
    spec.controller.observe = match mode {
        Mode::Traced => ObserveSpec::On,
        Mode::Plain | Mode::Checked => ObserveSpec::Off,
    };
    let Prepared {
        scenario,
        mut sim,
        controller,
        ..
    } = set_up(&spec)?;
    let expected_cycles =
        stats::expected_cycles(spec.timing.control_period_secs, spec.timing.horizon_secs);

    let (wall_s, result, decisions) = match mode {
        Mode::Checked => {
            let max_changes = scenario.controller.placement.max_changes;
            Timed::new(InvariantChecker::new(controller, max_changes)).drive(&mut sim)
        }
        Mode::Plain | Mode::Traced => Timed::new(controller).drive(&mut sim),
    };
    let failed_cycles = stats::failed_cycles(expected_cycles, &decisions.flagged, result.is_err());
    let quality = match result {
        Ok(report) if report.cycles != expected_cycles => Err(format!(
            "ran {} cycles, the horizon schedules {expected_cycles}",
            report.cycles
        )),
        Ok(report) => Quality::of(&report),
        Err(e) => Err(format!("run returned Err: {e}")),
    };
    Ok(Run {
        wall_s,
        decide_ms: decisions.decide_ms,
        population: decisions.population,
        expected_cycles,
        failed_cycles,
        violations: decisions.violations,
        quality,
        recorder: sim.recorder().clone(),
        jobs: scenario.jobs.len(),
    })
}

/// Every span the program records, with the layer (module) it belongs
/// to. A span missing here is unattributed and shows up in the
/// remainder check.
pub const SPAN_LAYERS: [(&str, &str); 23] = [
    ("cycle", "sim"),
    ("cycle.route", "routing"),
    ("cycle.sense", "sim"),
    ("cycle.solve", "core"),
    ("cycle.actuate", "sim"),
    ("control.equalize", "utility"),
    ("solve.step0.boundary", "placement"),
    ("solve.step1.keep", "placement"),
    ("solve.step2.apps", "placement"),
    ("solve.step3.place", "placement"),
    ("solve.step4.rebalance", "placement"),
    ("solve.step5.evict", "placement"),
    ("solve.step6.reclaim", "placement"),
    ("solve.step7.allocate", "placement"),
    ("shard.split", "placement"),
    ("shard.lanes", "placement"),
    ("shard.rebalance", "placement"),
    ("shard.merge", "placement"),
    ("alloc.flow.apps", "flow"),
    ("alloc.flow.jobs", "flow"),
    ("alloc.delta", "flow"),
    ("pipeline.solve", "core"),
    ("pipeline.reconcile", "core"),
];

/// One row of the traced-run export.
pub struct SpanRow {
    /// Layer (module) the span belongs to; `"?"` when unattributed.
    pub layer: &'static str,
    /// Span name as the program records it.
    pub span: String,
    /// Totals over the run.
    pub times: SpanTimes,
}

/// The spans a traced run recorded, named ones first in
/// [`SPAN_LAYERS`] order, then any the benchmark does not know.
pub fn span_rows(recorder: &Recorder) -> Vec<SpanRow> {
    let times = |name: &str| {
        recorder.span_stats(name).map(|s| SpanTimes {
            count: s.count,
            total_us: s.total_us,
            self_us: s.self_us,
        })
    };
    let mut rows: Vec<SpanRow> = SPAN_LAYERS
        .iter()
        .filter_map(|&(span, layer)| {
            times(span).map(|times| SpanRow {
                layer,
                span: span.to_string(),
                times,
            })
        })
        .collect();
    for name in recorder.names() {
        if SPAN_LAYERS.iter().all(|&(s, _)| s != name) {
            if let Some(times) = times(&name) {
                rows.push(SpanRow {
                    layer: "?",
                    span: name,
                    times,
                });
            }
        }
    }
    rows
}

/// Per-layer figures of one traced run: times per cycle in ms unless
/// the name ends in `_s`, counters per run.
pub fn layer_metrics(run: &Run, rows: &[SpanRow]) -> BTreeMap<&'static str, f64> {
    let get = |span: &str| {
        rows.iter()
            .find(|r| r.span == span)
            .map(|r| r.times)
            .unwrap_or_default()
    };
    let cycle = get("cycle");
    let cycles = cycle.count.max(1) as f64;
    let per_cycle_ms = |us: u64| us as f64 / 1e3 / cycles;
    let solve = get("cycle.solve");
    let equalize = get("control.equalize");
    let counter = |name: &str| run.recorder.counter_value(name) as f64;
    let wall_us = (run.wall_s * 1e6) as u64;
    let named: Vec<SpanTimes> = rows
        .iter()
        .filter(|r| r.layer != "?")
        .map(|r| r.times)
        .collect();

    let mut m = BTreeMap::new();
    m.insert("sim.event_loop_s", run.wall_s - cycle.total_us as f64 / 1e6);
    m.insert(
        "sim.actuate_ms",
        per_cycle_ms(get("cycle.actuate").total_us),
    );
    m.insert("sim.sense_ms", per_cycle_ms(get("cycle.sense").total_us));
    m.insert("core.glue_ms", per_cycle_ms(solve.self_us));
    m.insert("utility.equalize_ms", per_cycle_ms(equalize.total_us));
    m.insert(
        "placement.solve_ms",
        per_cycle_ms(solve.children_us().saturating_sub(equalize.total_us)),
    );
    for (metric, span) in [
        ("placement.step0_ms", "solve.step0.boundary"),
        ("placement.step1_ms", "solve.step1.keep"),
        ("placement.step2_ms", "solve.step2.apps"),
        ("placement.step3_ms", "solve.step3.place"),
        ("placement.step4_ms", "solve.step4.rebalance"),
        ("placement.step5_ms", "solve.step5.evict"),
        ("placement.step6_ms", "solve.step6.reclaim"),
        ("placement.step7_ms", "solve.step7.allocate"),
        ("placement.shard_split_ms", "shard.split"),
        ("placement.shard_lanes_ms", "shard.lanes"),
        ("placement.shard_rebalance_ms", "shard.rebalance"),
        ("placement.shard_merge_ms", "shard.merge"),
        ("flow.apps_ms", "alloc.flow.apps"),
        ("flow.jobs_ms", "alloc.flow.jobs"),
    ] {
        m.insert(metric, per_cycle_ms(get(span).self_us));
    }
    m.insert("placement.memo_hits", counter("solver.memo.hits"));
    m.insert("placement.heap_rebuilds", counter("heap.rebuilds"));
    m.insert("placement.shard_migrations", counter("shard.migrations"));
    m.insert(
        "routing.route_ms",
        per_cycle_ms(get("cycle.route").total_us),
    );
    m.insert("routing.requests", counter("route.requests"));
    m.insert(
        "obs.unspanned_frac",
        stats::remainder_us(wall_us, &named) as f64 / wall_us.max(1) as f64,
    );
    m
}
