//! Solver bench gate, the workspace's one hot-path harness: measure the
//! warm-solve hot paths, the utility equalizer, the routing tier and the
//! end-to-end control-cycle latency (snapshot → solve → actuate, sync
//! vs. overlapped pipeline), persist the numbers to a tracked baseline
//! file, and fail CI on regressions. Whole runs are timed by `perfbench/`.
//!
//! ```text
//! # measure and print
//! cargo run --release -p slaq-experiments --bin bench_gate
//!
//! # (re)write the tracked baseline
//! cargo run --release -p slaq-experiments --bin bench_gate -- --update BENCH_baseline.json
//!
//! # CI: fail when any warm solve regresses by more than the tolerance
//! cargo run --release -p slaq-experiments --bin bench_gate -- --check BENCH_baseline.json
//! ```
//!
//! The gate compares medians (robust against scheduler noise) with
//! `BENCH_GATE_TOLERANCE` (default 0.25 = +25 %) of slack, judged both
//! raw and after dividing out the run's geometric-mean ratio to the
//! baseline — a machine-speed normalizer, so a uniformly slower CI
//! runner passes while a single series regressing against its siblings
//! fails. A same-run hardware-independent invariant (the delta solve
//! beats the batch warm solve ≥ 5× under 1 % churn at 1000n/6000j)
//! backs the absolute numbers up, and `BENCH_GATE_HARD_CAP` bounds any
//! single series' raw regression outright. The run and the baseline must
//! name the same series, so a gated series cannot be dropped unseen.

use serde::{Deserialize, Serialize};
use slaq_core::{ObserveSpec, PipelineSpec, ScenarioSpec};
use slaq_experiments::sweeps::synthetic_problem;
use slaq_jobs::JobUtility;
use slaq_perfmodel::TransactionalModel;
use slaq_placement::{
    CandidateEngine, Placement, PlacementProblem, ShardPlan, ShardedSolver, SolveDelta, SolveMode,
    Solver,
};
use slaq_sim::{AppObservation, ControlInputs, Controller, MetricsSink};
use slaq_types::{AppId, CpuMhz, JobId};
use std::time::Instant;

/// One measured series.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchEntry {
    /// Series name (shape + engine).
    name: String,
    /// Median wall time of one warm solve, microseconds.
    micros: f64,
}

/// The tracked baseline file's schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BenchBaseline {
    /// All gated series.
    entries: Vec<BenchEntry>,
}

/// Prepare the steady-state re-solve inputs for a shape: the cold
/// solution with every job marked running becomes the previous placement.
fn warm_inputs(nodes: u32, jobs: u32) -> (PlacementProblem, Placement) {
    let problem = synthetic_problem(nodes, jobs, 1);
    let cold = slaq_placement::solve(&problem, &Placement::empty());
    let mut warm = problem;
    for j in &mut warm.jobs {
        j.running_on = cold.placement.job_node(j.id);
    }
    (warm, cold.placement)
}

/// Median wall time (µs) of `solve` after `warmup` priming calls.
fn measure(mut solve: impl FnMut() -> usize, warmup: usize, samples: usize) -> f64 {
    for _ in 0..warmup {
        std::hint::black_box(solve());
    }
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(solve());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn run_benches() -> Vec<BenchEntry> {
    let shapes: &[(u32, u32)] = &[(100, 600), (500, 3000), (1000, 6000)];
    let mut entries = Vec::new();
    for &(nodes, jobs) in shapes {
        let (warm, prev) = warm_inputs(nodes, jobs);
        let mut global = Solver::new();
        global.solve(&warm, &prev);
        let micros = measure(|| global.solve(&warm, &prev).changes.len(), 3, 30);
        entries.push(BenchEntry {
            name: format!("warm_global_{nodes}n_{jobs}j"),
            micros,
        });
        // Heap-vs-scan, warm: the same warm solve through the pre-heap
        // linear scans. Since step 3's failed-scan memo, the steady
        // state runs almost no candidate scans for either engine, so
        // these series are baseline-gated guards only (see the retired-
        // invariants note on `relative_invariants_hold`).
        if nodes >= 500 {
            let mut scan = Solver::with_engine(CandidateEngine::Scan);
            scan.solve(&warm, &prev);
            let micros = measure(|| scan.solve(&warm, &prev).changes.len(), 3, 30);
            entries.push(BenchEntry {
                name: format!("warm_scan_{nodes}n_{jobs}j"),
                micros,
            });
        }
        let mut sharded = ShardedSolver::new(ShardPlan::Fixed(8), 16);
        sharded.solve(&warm, &prev);
        let micros = measure(|| sharded.solve(&warm, &prev).changes.len(), 3, 30);
        entries.push(BenchEntry {
            name: format!("warm_sharded8_{nodes}n_{jobs}j"),
            micros,
        });
    }
    // The 10× scale point, global engine only: the linear scan would
    // take O(J·N) ≈ 600 M candidate probes per solve here, and eight
    // sequential lanes just multiply the merge cost, so neither earns a
    // series at this shape. Fewer samples keep the gate's runtime sane;
    // medians stay stable because one solve is long enough to average
    // out scheduler noise on its own.
    {
        let (nodes, jobs) = (10_000u32, 60_000u32);
        let (warm, prev) = warm_inputs(nodes, jobs);
        let mut global = Solver::new();
        global.solve(&warm, &prev);
        let micros = measure(|| global.solve(&warm, &prev).changes.len(), 1, 10);
        entries.push(BenchEntry {
            name: format!("warm_global_{nodes}n_{jobs}j"),
            micros,
        });
    }
    entries.extend(delta_entries());
    entries.extend(equalizer_entries());
    entries.extend(routing_entries());
    entries.extend(obs_entries());
    entries.extend(cycle_latency_entries());
    entries
}

/// Observability-plane series: the identical warm solve with a live
/// recorder attached. The obs-*off* cost needs no series of its own —
/// every warm series above runs with the recorder compiled in and
/// disabled, so the pre-instrumentation baseline medians in
/// `BENCH_baseline.json` (deliberately not re-recorded when this series
/// landed) already gate the disabled plane's overhead to within the
/// ordinary tolerance. This series prices the *enabled* plane: eight
/// step spans, the flow-phase spans and a handful of counter bumps per
/// solve, pinned against the obs-off twin by the same-run invariant in
/// `relative_invariants_hold`.
fn obs_entries() -> Vec<BenchEntry> {
    let (nodes, jobs) = (1000u32, 6000u32);
    let (warm, prev) = warm_inputs(nodes, jobs);
    let mut solver = Solver::new();
    solver.set_recorder(slaq_obs::Recorder::enabled());
    solver.solve(&warm, &prev);
    let micros = measure(|| solver.solve(&warm, &prev).changes.len(), 3, 30);
    vec![BenchEntry {
        name: format!("warm_global_obs_{nodes}n_{jobs}j"),
        micros,
    }]
}

/// Equalizer series: one `equalize_bisection` over the largest pool the
/// controller equalizes in a `paper` run — the app's `TransactionalModel`
/// plus every active job's utility snapshot, against the cluster's CPU,
/// exactly as `UtilityController` builds them. Its contract is checked
/// once before timing, so an equalizer that gets faster by doing less
/// fails the gate, not only the baseline.
fn equalizer_entries() -> Vec<BenchEntry> {
    use slaq_utility::{equalize_bisection, EqEntity, EqualizeOptions, UtilityOfCpu};
    let scenario = ScenarioSpec::preset("paper")
        .expect("preset exists")
        .materialize()
        .expect("preset is valid");
    let mut capture = PoolCapture {
        inner: scenario.controller(),
        pool: None,
    };
    let mut sim = scenario.build().expect("preset builds");
    sim.run(&mut capture).expect("preset runs");
    let pool = capture.pool.expect("the run has control cycles");
    let models: Vec<(AppId, TransactionalModel)> = pool
        .apps
        .iter()
        .filter_map(|a| TransactionalModel::new(a.spec.clone(), a.lambda).map(|m| (a.id, m)))
        .collect();
    let mut entities: Vec<EqEntity<'_>> = models
        .iter()
        .map(|(id, m)| EqEntity::new(*id, m as &dyn UtilityOfCpu))
        .collect();
    entities.extend(
        pool.jobs
            .iter()
            .map(|(id, ju)| EqEntity::new(*id, ju as &dyn UtilityOfCpu)),
    );
    let opts = EqualizeOptions::default();
    let result = equalize_bisection(&entities, pool.budget, &opts);
    check_equalizer_contract(&entities, &result, pool.budget, opts.tol_utility);
    let micros = measure(
        || equalize_bisection(&entities, pool.budget, &opts).iterations,
        3,
        30,
    );
    vec![BenchEntry {
        name: "equalize_paper_peak".into(),
        micros,
    }]
}

/// The equalizer's inputs at one control cycle.
struct EqualizerPool {
    apps: Vec<AppObservation>,
    jobs: Vec<(JobId, JobUtility)>,
    budget: CpuMhz,
}

/// Passes every cycle to `inner` and keeps a copy of the largest
/// equalizer input among them.
struct PoolCapture {
    inner: Box<dyn Controller>,
    pool: Option<EqualizerPool>,
}

impl PoolCapture {
    fn capture(&mut self, inputs: &ControlInputs<'_>) {
        let jobs = inputs.jobs.entities(inputs.now);
        let size = inputs.apps.len() + jobs.len();
        if self
            .pool
            .as_ref()
            .is_none_or(|p| size > p.apps.len() + p.jobs.len())
        {
            self.pool = Some(EqualizerPool {
                apps: inputs.apps.to_vec(),
                jobs,
                budget: inputs.nodes.iter().map(|n| n.cpu).sum(),
            });
        }
    }
}

impl Controller for PoolCapture {
    fn control(&mut self, inputs: &ControlInputs<'_>, metrics: &mut MetricsSink) -> Placement {
        self.capture(inputs);
        self.inner.control(inputs, metrics)
    }

    fn control_delta(
        &mut self,
        inputs: &ControlInputs<'_>,
        delta: Option<&SolveDelta>,
        metrics: &mut MetricsSink,
    ) -> Placement {
        self.capture(inputs);
        self.inner.control_delta(inputs, delta, metrics)
    }

    fn set_recorder(&mut self, recorder: slaq_obs::Recorder) {
        self.inner.set_recorder(recorder);
    }
}

/// Panic unless `result` honours the equalizer's contract on `entities`:
/// Σ grants ≤ budget, each grant within `[0, max_useful_cpu]`, and
/// max–min optimal to `tol`: lifting every curve to the lowest utility
/// among grants strictly inside `(0, max_useful_cpu)` plus `tol` would
/// cost more than the budget.
///
/// This stands in for "max − min utility ≤ tol among those grants",
/// which bisection does not meet (see the ignored
/// `interior_utilities_lie_within_tol` test in `slaq-utility`).
fn check_equalizer_contract(
    entities: &[slaq_utility::EqEntity<'_>],
    result: &slaq_utility::EqualizedAllocation,
    budget: CpuMhz,
    tol: f64,
) {
    let budget = budget.as_f64();
    let granted: f64 = result.allocations.iter().map(|a| a.cpu.as_f64()).sum();
    // A sum of n terms may round by n ULPs.
    let slack = budget * entities.len() as f64 * f64::EPSILON;
    assert!(
        granted <= budget + slack,
        "equalizer: granted {granted} MHz exceeds the {budget} MHz budget"
    );
    let mut floor = f64::INFINITY;
    for (e, a) in entities.iter().zip(&result.allocations) {
        let (cpu, cap) = (a.cpu.as_f64(), e.curve.max_useful_cpu().as_f64());
        assert!(
            (0.0..=cap).contains(&cpu),
            "equalizer: {:?} granted {cpu} outside [0, {cap}]",
            e.id
        );
        if cpu > 0.0 && cpu < cap {
            floor = floor.min(a.utility);
        }
    }
    let lifted: f64 = entities
        .iter()
        .map(|e| {
            e.curve
                .cpu_for_utility(floor + tol)
                .unwrap_or(e.curve.max_useful_cpu())
                .as_f64()
        })
        .sum();
    assert!(
        floor.is_infinite() || lifted > budget,
        "equalizer: floor {floor} could rise by {tol} within the budget \
         ({lifted} of {budget} MHz), so the result is not max-min"
    );
}

/// Routing-tier series: one full control cycle of request routing at
/// the 1000-node fleet scale — 50 transactional apps × 20 live
/// instances each, 20 000 requests per app, so ~1 M requests cross the
/// tier per measured cycle. Requests are aggregated counts (the router
/// scores chunk shares, never individual requests), so the cost is
/// driven by apps × chunks × instances, not by request volume — which
/// is exactly what the same-run invariant in `relative_invariants_hold`
/// pins against the warm solve.
fn routing_entries() -> Vec<BenchEntry> {
    use slaq_routing::{RouterConfig, RoutingTier};
    use slaq_types::NodeId;
    let apps = 50u32;
    let per_app = 20u32;
    let requests_per_app = 20_000u64;
    let fleets: Vec<(AppId, Vec<(NodeId, f64)>)> = (0..apps)
        .map(|a| {
            let instances = (0..per_app)
                .map(|i| {
                    // Spread instances over the 1000-node fleet with a
                    // skewed capacity mix, id-sorted as the tier expects.
                    let node = (a * 20 + i * 7) % 1000;
                    (NodeId::new(node), 2000.0 + ((i * 7919) % 1600) as f64)
                })
                .collect::<std::collections::BTreeMap<_, _>>()
                .into_iter()
                .collect();
            (AppId::new(a), instances)
        })
        .collect();
    let mut tier = RoutingTier::new(RouterConfig::default());
    let micros = measure(
        || {
            let mut routed = 0usize;
            for (app, instances) in &fleets {
                let out = tier.route_app(*app, requests_per_app, instances);
                routed += out.shares.len();
            }
            routed
        },
        3,
        30,
    );
    vec![BenchEntry {
        name: "route_cycle_1000n_50a_1m".into(),
        micros,
    }]
}

/// Delta-solve series: a warm delta-mode solver re-solving under
/// synthetic demand churn. The shape is jobs-only (`apps = 0`) because
/// app-level flow keeps hosts contended and the canonical fast path
/// disengaged — exactly the regime where delta mode falls back to the
/// batch path, which `delta_cold` already prices. The churn series
/// rotate a fixed fraction of job demands between solves, so each
/// measured call pays diff + flow surgery proportional to churn, not to
/// fleet size. Since `synthetic_problem` derives priorities from the
/// job index (not demand), demand churn never perturbs the solver's
/// warm sort orders.
fn delta_entries() -> Vec<BenchEntry> {
    let (nodes, jobs) = (1000u32, 6000u32);
    let mut entries = Vec::new();
    let problem = synthetic_problem(nodes, jobs, 0);
    let cold = slaq_placement::solve(&problem, &Placement::empty());
    let mut warm = problem;
    for j in &mut warm.jobs {
        j.running_on = cold.placement.job_node(j.id);
    }
    let prev = cold.placement;

    // Batch reference on the identical jobs-only problem, under the
    // identical churn schedule as the churn1 series below: the honest
    // same-problem denominator for the churn-proportionality invariant.
    {
        let mut warm = warm.clone();
        let mut solver = Solver::new();
        solver.solve(&warm, &prev);
        let n_churn = ((jobs as f64 * 0.01) as usize).max(1);
        let mut round = 0usize;
        let micros = measure(
            || {
                round += 1;
                for k in 0..n_churn {
                    let i = (round * n_churn + k) % warm.jobs.len();
                    warm.jobs[i].demand = slaq_types::units::CpuMhz(
                        600.0 + 2400.0 * (((i * 7919 + round * 13) % 100) as f64) / 100.0,
                    );
                }
                solver.solve(&warm, &prev).changes.len()
            },
            3,
            30,
        );
        entries.push(BenchEntry {
            name: format!("delta_batchref_{nodes}n_{jobs}j"),
            micros,
        });
    }

    // Cold: the first cycle in delta mode has no capture to lean on and
    // runs the full batch path (plus the canonical-capture audit) — the
    // price of entry, gated so it never silently balloons.
    let micros = measure(
        || {
            Solver::with_mode(SolveMode::Delta)
                .solve(&warm, &prev)
                .changes
                .len()
        },
        1,
        10,
    );
    entries.push(BenchEntry {
        name: format!("delta_cold_{nodes}n_{jobs}j"),
        micros,
    });

    for (label, fraction) in [("churn1", 0.01f64), ("churn10", 0.10)] {
        let mut warm = warm.clone();
        let mut solver = Solver::with_mode(SolveMode::Delta);
        solver.solve(&warm, &prev);
        let n_churn = ((jobs as f64 * fraction) as usize).max(1);
        let mut round = 0usize;
        let micros = measure(
            || {
                round += 1;
                for k in 0..n_churn {
                    let i = (round * n_churn + k) % warm.jobs.len();
                    warm.jobs[i].demand = slaq_types::units::CpuMhz(
                        600.0 + 2400.0 * (((i * 7919 + round * 13) % 100) as f64) / 100.0,
                    );
                }
                solver.solve(&warm, &prev).changes.len()
            },
            3,
            30,
        );
        assert!(
            solver.delta_stats().hits > 0,
            "delta_{label}: fast path never engaged — the series would be \
             measuring batch fallbacks"
        );
        entries.push(BenchEntry {
            name: format!("delta_{label}_{nodes}n_{jobs}j"),
            micros,
        });
    }
    entries
}

/// End-to-end control-cycle latency (snapshot → solve → actuate) through
/// the full simulator, per pipeline mode: median over whole short runs
/// of `paper-small`, divided by the cycle count. Unlike the warm-solve
/// medians above, this covers the entire control plane — sensing,
/// snapshot capture, the solve, reconciliation and enactment — so a
/// regression anywhere in the cycle path trips the same ±25 % gate.
fn cycle_latency_entries() -> Vec<BenchEntry> {
    let mut entries = Vec::new();
    // The `sync_obs` variant is the same sync cycle with the recorder
    // live end to end (every phase span, solver step span and counter
    // firing); the same-run invariant pins it against plain `sync` so
    // the enabled plane can never quietly grow into a cycle-level cost.
    // The `audit` variant is the same observed cycle measured under its
    // own baseline-tracked name now that observe = "On" also runs the
    // SLA plane — per-app SLO tracking, the violation-attribution pass
    // and the decision audit ring — so a regression in *that* layer is
    // attributed by name rather than smeared into `sync_obs`, and the
    // audit-on ≤ 1.5× obs-off bound gets its own same-run invariant.
    for (label, mode, observe) in [
        ("sync", PipelineSpec::Sync, ObserveSpec::Off),
        ("overlap1", PipelineSpec::overlap(1), ObserveSpec::Off),
        ("sync_obs", PipelineSpec::Sync, ObserveSpec::On),
        ("audit", PipelineSpec::Sync, ObserveSpec::On),
    ] {
        let mut spec = ScenarioSpec::preset("paper-small").expect("preset exists");
        spec.controller.pipeline = mode;
        spec.controller.observe = observe;
        entries.push(BenchEntry {
            name: format!("cycle_{label}_paper_small"),
            micros: cycle_micros(spec),
        });
    }
    // The adversarial twin: the same end-to-end cycle measurement on the
    // `zone-storm` preset — correlated zone outages plus mid-run capacity
    // dips driving the fault paths (dead-node filtering, suspension,
    // dip-scaled capacities) every few cycles. Baseline-gated like the
    // rest, and pinned against the friendly sync cycle by the same-run
    // ≤ 3x invariant below so chaos handling can never quietly become a
    // multiple of the control cycle.
    entries.push(BenchEntry {
        name: "cycle_chaos_zone_storm".into(),
        micros: cycle_micros(ScenarioSpec::preset("zone-storm").expect("preset exists")),
    });
    entries
}

/// Median wall time (µs) per control cycle over seven whole runs of
/// `spec`, capped to ten cycles.
fn cycle_micros(mut spec: ScenarioSpec) -> f64 {
    spec.timing.cap_to_cycles(10);
    let scenario = spec.materialize().expect("preset is valid");
    let mut times: Vec<f64> = (0..7)
        .map(|_| {
            let mut controller = scenario.controller();
            let mut sim = scenario.build().expect("preset builds");
            let start = Instant::now();
            let report = sim.run(controller.as_mut()).expect("preset runs");
            start.elapsed().as_secs_f64() * 1e6 / report.cycles.max(1) as f64
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn print_table(entries: &[BenchEntry], baseline: Option<&BenchBaseline>) {
    println!(
        "{:<32} {:>12} {:>12} {:>8}",
        "series", "now (µs)", "base (µs)", "ratio"
    );
    for e in entries {
        let base = baseline.and_then(|b| b.entries.iter().find(|x| x.name == e.name));
        match base {
            Some(b) if b.micros > 0.0 => println!(
                "{:<32} {:>12.1} {:>12.1} {:>8.2}",
                e.name,
                e.micros,
                b.micros,
                e.micros / b.micros
            ),
            _ => println!("{:<32} {:>12.1} {:>12} {:>8}", e.name, e.micros, "-", "-"),
        }
    }
}

/// Hardware-independent invariants, compared within the *same* run on
/// the *same* machine (unlike the baseline medians, which were recorded
/// on whatever box last ran `--update`): the delta solve must beat the
/// batch warm solve ≥ 5× under 1 % churn, the routing tier must stay a
/// rounding error next to the warm solve, and the *enabled*
/// observability plane must stay within 1.5× of its obs-off twin at
/// both the warm-solve and full-cycle scopes. These hold regardless of
/// how fast the runner is, so they keep teeth even when absolute
/// numbers drift with hardware.
///
/// (Two retired invariants, for the record. Pre-heap: sharded beats
/// global at 500n+ — gone once `O(log N)` per-job selection made the
/// global solve faster than eight sequential lanes plus merge overhead;
/// sharding's win returns with real thread parallelism. Pre-memo: heap
/// ≥ 1.3× faster than scan on the warm solve — gone once step 3's
/// failed-scan memo collapsed the steady state's thousands of failing
/// candidate scans into one for *both* engines. The heap's pinned win
/// was exactly those failing memory-blocked queries (pruned at the
/// root in O(1)); with the memo answering them for everyone, neither a
/// warm nor a cold shape separates the engines here any more — on this
/// synthetic's heavily tied keys a cold heap solve even loses to the
/// tight linear scan. The scan series stay baseline-gated so an engine
/// regression still shows; the differential tests keep pinning their
/// bit-identical outcomes.)
fn relative_invariants_hold(entries: &[BenchEntry]) -> bool {
    let find = |name: &str| entries.iter().find(|e| e.name == name).map(|e| e.micros);
    let mut ok = true;
    // Delta solve: re-solving after 1 % demand churn must beat the
    // batch warm solve at the same 1000n/6000j scale by ≥ 5× — the
    // churn-proportional claim, pinned within one run so it holds on
    // any hardware.
    if let (Some(batch), Some(delta)) = (
        find("warm_global_1000n_6000j"),
        find("delta_churn1_1000n_6000j"),
    ) {
        if delta * 5.0 > batch {
            eprintln!(
                "FAIL delta churn1: {delta:.1} µs not 5x faster than batch warm \
                 {batch:.1} µs"
            );
            ok = false;
        }
    }
    // Observability plane, enabled: the fully instrumented warm solve
    // (eight step spans, flow-phase spans, counters) must stay within
    // 1.5x of the obs-off twin measured in this same run, and the
    // instrumented end-to-end cycle within 1.5x of the plain sync
    // cycle. The recorder's hot path is one branch plus two clock reads
    // per span, so 1.5x is generous headroom, not a target.
    if let (Some(off), Some(on)) = (
        find("warm_global_1000n_6000j"),
        find("warm_global_obs_1000n_6000j"),
    ) {
        if on > off * 1.5 {
            eprintln!(
                "FAIL obs overhead: instrumented warm solve {on:.1} µs exceeds \
                 1.5x the obs-off {off:.1} µs"
            );
            ok = false;
        }
    }
    if let (Some(off), Some(on)) = (
        find("cycle_sync_paper_small"),
        find("cycle_sync_obs_paper_small"),
    ) {
        if on > off * 1.5 {
            eprintln!(
                "FAIL obs overhead: instrumented sync cycle {on:.1} µs exceeds \
                 1.5x the obs-off {off:.1} µs"
            );
            ok = false;
        }
    }
    // SLA observability plane: the audit-on cycle (per-app SLO
    // tracking, the attribution pass and the decision audit ring, all
    // riding on observe = "On") must also stay within 1.5x of the
    // obs-off sync cycle in the same run. The SLO pass is two O(apps)
    // sweeps and each audit write is a ring push behind the one-branch
    // recorder guard, so this bound has the same generous headroom as
    // the span-plane one above.
    if let (Some(off), Some(on)) = (
        find("cycle_sync_paper_small"),
        find("cycle_audit_paper_small"),
    ) {
        if on > off * 1.5 {
            eprintln!(
                "FAIL audit overhead: SLO/audit-on sync cycle {on:.1} µs exceeds \
                 1.5x the obs-off {off:.1} µs"
            );
            ok = false;
        }
    }
    // Chaos handling: the zone-storm cycle (12-node three-zone fleet,
    // storm outages and capacity dips toggling nodes in and out of the
    // live set) must stay within 3x of the friendly paper-small sync
    // cycle in the same run. The fault paths are O(outages + dips)
    // scans per event boundary plus the normal solve on a slightly
    // larger fleet, so 3x bounds "chaos is ordinary control work" while
    // leaving room for the bigger problem size.
    if let (Some(friendly), Some(chaos)) = (
        find("cycle_sync_paper_small"),
        find("cycle_chaos_zone_storm"),
    ) {
        if chaos > friendly * 3.0 {
            eprintln!(
                "FAIL chaos overhead: zone-storm cycle {chaos:.1} µs exceeds \
                 3x the friendly sync cycle {friendly:.1} µs"
            );
            ok = false;
        }
    }
    // Routing tier: apportioning the cycle's ~1 M requests across 50
    // apps' instances must stay under 10 % of the warm solve at the
    // same fleet scale — the tier rides in front of every solve, so its
    // overhead must remain a rounding error on the control cycle.
    if let (Some(solve), Some(route)) = (
        find("warm_global_1000n_6000j"),
        find("route_cycle_1000n_50a_1m"),
    ) {
        if route * 10.0 > solve {
            eprintln!(
                "FAIL routing overhead: {route:.1} µs exceeds 10% of the \
                 {solve:.1} µs warm solve"
            );
            ok = false;
        }
    }
    ok
}

/// Per-series verdicts of `--check`, one message per failing series: a
/// run series missing from the baseline, a baseline series the run no
/// longer produces (so deleting a gated series cannot pass unseen), a
/// series over the raw hard cap, or one over the tolerance both raw and
/// after dividing out the run's `geomean` ratio to the baseline.
fn series_failures(
    entries: &[BenchEntry],
    baseline: &BenchBaseline,
    tolerance: f64,
    hard_cap: f64,
    geomean: f64,
) -> Vec<String> {
    let mut failures = Vec::new();
    for e in entries {
        match baseline.entries.iter().find(|b| b.name == e.name) {
            None => failures.push(format!("{}: not in baseline (run --update)", e.name)),
            Some(b) if b.micros > 0.0 && e.micros > b.micros * hard_cap => {
                failures.push(format!(
                    "{}: {:.1} µs vs baseline {:.1} µs exceeds the {hard_cap}x \
                     hard cap (BENCH_GATE_HARD_CAP)",
                    e.name, e.micros, b.micros
                ));
            }
            Some(b)
                if e.micros > b.micros * (1.0 + tolerance)
                    && e.micros / b.micros > geomean * (1.0 + tolerance) =>
            {
                failures.push(format!(
                    "{}: {:.1} µs vs baseline {:.1} µs (> +{:.0}% raw and \
                     machine-normalized; run geomean ratio {:.2})",
                    e.name,
                    e.micros,
                    b.micros,
                    tolerance * 100.0,
                    geomean
                ));
            }
            Some(_) => {}
        }
    }
    for b in &baseline.entries {
        if !entries.iter().any(|e| e.name == b.name) {
            failures.push(format!(
                "{}: in the baseline but not measured by this run (a dropped series; \
                 re-record with --update if the removal is deliberate)",
                b.name
            ));
        }
    }
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let entries = run_benches();
    match (args.first().map(String::as_str), args.get(1)) {
        (Some("--update"), Some(path)) => {
            let baseline = BenchBaseline {
                entries: entries.clone(),
            };
            let json = serde_json::to_string_pretty(&baseline).expect("serializes");
            std::fs::write(path, json + "\n").unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            });
            print_table(&entries, None);
            println!("baseline written to {path}");
        }
        (Some("--check"), Some(path)) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e} (run --update first)");
                std::process::exit(1);
            });
            let baseline: BenchBaseline = serde_json::from_str(&text).unwrap_or_else(|e| {
                eprintln!("cannot parse baseline {path}: {e}");
                std::process::exit(1);
            });
            let tolerance: f64 = std::env::var("BENCH_GATE_TOLERANCE")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.25);
            // The geomean normalizer below can absolve a series that
            // regressed in lockstep with the rest of the run; the hard
            // cap is the backstop — no series may exceed its baseline by
            // this factor raw, however the rest of the run moved.
            let hard_cap: f64 = std::env::var("BENCH_GATE_HARD_CAP")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(3.0);
            print_table(&entries, Some(&baseline));
            // Machine-speed normalizer: the geometric mean of now/base
            // across all series. A slower (or faster) runner inflates
            // every series together, moving the geomean with them; a
            // genuine regression moves one series *against* the rest. A
            // series fails only when it exceeds the tolerance both
            // absolutely and after dividing out the geomean, so the gate
            // survives hardware churn without losing its teeth.
            let ratios: Vec<f64> = entries
                .iter()
                .filter_map(|e| {
                    baseline
                        .entries
                        .iter()
                        .find(|b| b.name == e.name && b.micros > 0.0)
                        .map(|b| e.micros / b.micros)
                })
                .collect();
            let geomean = if ratios.is_empty() {
                1.0
            } else {
                (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
            };
            let mut failed = false;
            // A high geomean is either slower hardware or a regression in
            // the shared solver core that inflated every series together
            // — indistinguishable from wall time alone. Warn by default
            // so hardware churn doesn't hard-fail; BENCH_GATE_STRICT=1
            // (for baselines known to come from this machine class) turns
            // it into a failure.
            if geomean > 1.0 + tolerance {
                let strict = std::env::var("BENCH_GATE_STRICT").is_ok_and(|v| v == "1");
                eprintln!(
                    "{} run is uniformly {:.2}x the baseline: slower hardware, or a \
                     regression in the shared solver core (re-record with --update on \
                     this machine to tell them apart)",
                    if strict { "FAIL" } else { "WARN" },
                    geomean
                );
                failed |= strict;
            }
            for failure in series_failures(&entries, &baseline, tolerance, hard_cap, geomean) {
                eprintln!("FAIL {failure}");
                failed = true;
            }
            if !relative_invariants_hold(&entries) {
                failed = true;
            }
            if failed {
                std::process::exit(1);
            }
            println!("bench gate passed (tolerance +{:.0}%)", tolerance * 100.0);
        }
        (None, _) => print_table(&entries, None),
        _ => {
            eprintln!("usage: bench_gate [--update <baseline.json> | --check <baseline.json>]");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `series_failures` at the default tolerance and hard cap.
    fn failures(run: &[(&str, f64)], base: &[(&str, f64)], geomean: f64) -> Vec<String> {
        let entries = |series: &[(&str, f64)]| -> Vec<BenchEntry> {
            series
                .iter()
                .map(|&(name, micros)| BenchEntry {
                    name: name.into(),
                    micros,
                })
                .collect()
        };
        let baseline = BenchBaseline {
            entries: entries(base),
        };
        series_failures(&entries(run), &baseline, 0.25, 3.0, geomean)
    }

    #[test]
    fn matching_series_within_tolerance_pass() {
        let base = [("a", 100.0), ("b", 50.0)];
        assert!(failures(&[("a", 110.0), ("b", 40.0)], &base, 1.0).is_empty());
    }

    #[test]
    fn a_baseline_series_the_run_dropped_fails() {
        let f = failures(&[("a", 100.0)], &[("a", 100.0), ("gone", 50.0)], 1.0);
        assert!(f.len() == 1 && f[0].starts_with("gone:"), "{f:?}");
    }

    #[test]
    fn a_run_series_missing_from_the_baseline_fails() {
        let f = failures(&[("a", 100.0), ("new", 1.0)], &[("a", 100.0)], 1.0);
        assert!(f.len() == 1 && f[0].starts_with("new:"), "{f:?}");
    }

    #[test]
    fn regressions_fail_on_tolerance_and_hard_cap() {
        let base = [("slow", 100.0), ("capped", 100.0)];
        let run = [("slow", 130.0), ("capped", 301.0)];
        let f = failures(&run, &base, 1.0);
        assert!(f.len() == 2 && f[0].starts_with("slow:"), "{f:?}");
        assert!(
            f[1].starts_with("capped:") && f[1].contains("hard cap"),
            "{f:?}"
        );
        // A uniformly slower run absolves the tolerance breach, never the
        // hard cap.
        let f = failures(&run, &base, 1.3);
        assert!(f.len() == 1 && f[0].starts_with("capped:"), "{f:?}");
    }
}
