//! The **snapshot** stage of the control pipeline: an owned, `Send`
//! capture of everything a controller may observe at a control cycle.
//!
//! [`ControlInputs`] is a bundle of borrows into the
//! live simulator — perfect for the synchronous path, where the solve
//! happens inline and the world cannot move underneath it, but useless for
//! an overlapped solve that must outlive the control cycle it was sensed
//! in. [`SensingSnapshot`] is the owned counterpart: node capacities, the
//! placement in force, the whole job manager (states, remaining work,
//! SLAs) and the per-application observations, cloned once at sensing
//! time. It is `Send`, so a solve task built from it can cross a worker
//! boundary (today's worker runs inline under the sequential `rayon`
//! stand-in; real threads get the same contract for free), and
//! [`SensingSnapshot::inputs`] lends it back out as `ControlInputs` so
//! any [`Controller`](crate::Controller) can solve against the frozen
//! world without knowing it is stale.
//!
//! Staleness is the point: a plan computed from a snapshot taken at cycle
//! *k* describes the world as it *was*; whoever enacts it at cycle
//! *k + latency* must reconcile it against the world as it *is* (jobs
//! completed meanwhile, nodes failed, arrivals the plan never saw). The
//! reconciliation lives with the pipeline driver in `slaq-core`; this
//! module only guarantees the capture is complete and detached.

use crate::apps::AppObservation;
use crate::simulator::ControlInputs;
use slaq_jobs::{JobManager, JobState};
use slaq_placement::problem::NodeCapacity;
use slaq_placement::{Placement, SolveDelta};
use slaq_types::{AppId, JobId, NodeId, SimTime};

/// An owned, detached capture of one control cycle's observations — the
/// snapshot stage of the snapshot → solve → actuate pipeline.
#[derive(Debug, Clone)]
pub struct SensingSnapshot {
    /// Instant the snapshot was taken (the sensing cycle's `now`).
    pub now: SimTime,
    /// Node capacities as sensed (outage-affected nodes read zero).
    pub nodes: Vec<NodeCapacity>,
    /// Placement in force at sensing time.
    pub current: Placement,
    /// The job population, frozen: states, remaining work, SLAs.
    pub jobs: JobManager,
    /// Per-application observations (spec + estimated intensity).
    pub apps: Vec<AppObservation>,
}

impl SensingSnapshot {
    /// Capture the live inputs into an owned snapshot.
    pub fn capture(inputs: &ControlInputs<'_>) -> Self {
        SensingSnapshot {
            now: inputs.now,
            nodes: inputs.nodes.to_vec(),
            current: inputs.current.clone(),
            jobs: inputs.jobs.clone(),
            apps: inputs.apps.to_vec(),
        }
    }

    /// Lend the snapshot back out as controller inputs: any
    /// [`Controller`](crate::Controller) can solve against the frozen
    /// world exactly as it would against the live one.
    pub fn inputs(&self) -> ControlInputs<'_> {
        ControlInputs {
            now: self.now,
            nodes: &self.nodes,
            current: &self.current,
            jobs: &self.jobs,
            apps: &self.apps,
        }
    }
}

// A snapshot must be able to cross a solve-worker boundary.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<SensingSnapshot>();
};

/// Compact placement-relevant fingerprint of one active job: where its VM
/// sits, a lifecycle tag, and how much work is left.
#[derive(Debug, Clone, Copy, PartialEq)]
struct JobPrint {
    node: Option<NodeId>,
    /// 0 = pending, 1 = running, 2 = suspended (completed jobs are not
    /// fingerprinted — they leave the placement problem entirely).
    tag: u8,
    remaining: f64,
}

/// Diffs consecutive control cycles' sensed inputs into a [`SolveDelta`]
/// — the dirty set the simulator threads through
/// [`Controller::control_delta`](crate::Controller::control_delta) into
/// the solver's churn-proportional fast path.
///
/// The tracker keeps **capture-by-diff fingerprints**, not clones of the
/// sensed world: per node `(id, cpu, mem)`, per app `(id, λ)`, per active
/// job a `(node, lifecycle, remaining)` triple — a few machine words per
/// entity instead of a second [`JobManager`]. Each list is sorted by id
/// and diffed against the previous cycle's in one merge, and the jobs are
/// read from [`JobManager::active`], so a cycle costs O(nodes + apps +
/// active jobs), never the whole job history. The resulting delta is
/// *advisory*: the solver re-verifies every reuse precondition itself, so
/// an imprecise tolerance costs a wasted audit, never a wrong placement.
#[derive(Debug, Clone, Default)]
pub struct DeltaTracker {
    primed: bool,
    /// Relative drift below this fraction is ignored for app intensities
    /// and job work remainders (`0.0` = any change counts).
    tolerance: f64,
    nodes: Vec<(NodeId, (f64, u64))>,
    apps: Vec<(AppId, f64)>,
    jobs: Vec<(JobId, JobPrint)>,
}

/// One id present in the previous cycle's list, this cycle's, or both.
enum Merged<'a, K, V> {
    Old(K),
    New(K),
    Both(K, &'a V, &'a V),
}

/// Walk two id-sorted lists in lockstep, in id order.
fn merge<'a, K: Ord + Copy, V>(
    old: &'a [(K, V)],
    new: &'a [(K, V)],
    mut visit: impl FnMut(Merged<'a, K, V>),
) {
    use std::cmp::Ordering;
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (old.get(i), new.get(j)) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((ko, _)), Some((kn, _))) => ko.cmp(kn),
        };
        match order {
            Ordering::Less => {
                visit(Merged::Old(old[i].0));
                i += 1;
            }
            Ordering::Greater => {
                visit(Merged::New(new[j].0));
                j += 1;
            }
            Ordering::Equal => {
                visit(Merged::Both(new[j].0, &old[i].1, &new[j].1));
                i += 1;
                j += 1;
            }
        }
    }
}

/// `(id, value)` pairs sorted by id; a repeated id keeps its last value,
/// as repeated map inserts would.
fn sorted_last_wins<K: Ord + Copy, V>(mut pairs: Vec<(K, V)>) -> Vec<(K, V)> {
    pairs.sort_by_key(|&(k, _)| k);
    let mut out: Vec<(K, V)> = Vec::with_capacity(pairs.len());
    for (k, v) in pairs {
        match out.last_mut() {
            Some(last) if last.0 == k => last.1 = v,
            _ => out.push((k, v)),
        }
    }
    out
}

impl DeltaTracker {
    /// A tracker flagging any relative drift beyond `tolerance` (use
    /// `0.0` to flag every change; apps and job work remainders only —
    /// lifecycle and topology changes always count).
    pub fn new(tolerance: f64) -> Self {
        DeltaTracker {
            tolerance: tolerance.max(0.0),
            ..DeltaTracker::default()
        }
    }

    /// Diff the sensed inputs against the previous cycle's fingerprints,
    /// then adopt the new fingerprints. The first observation (nothing to
    /// diff against) reports every job as arrived — a structural delta,
    /// so the solver takes the full path and primes its warm state.
    ///
    /// Within each list of the delta, ids present this cycle come first
    /// in id order, then ids that vanished, in id order.
    pub fn observe(&mut self, inputs: &ControlInputs<'_>) -> SolveDelta {
        let mut delta = SolveDelta::default();
        let tol = self.tolerance;
        let drifted = |old: f64, new: f64| (new - old).abs() > tol * old.abs().max(1.0);

        // --- nodes: outages read as zero capacity, so "dead" means the
        // sensed CPU collapsed to zero (or the id vanished). ---
        let cur_nodes = sorted_last_wins(
            inputs
                .nodes
                .iter()
                .map(|n| (n.id, (n.cpu.as_f64(), n.mem.as_u64())))
                .collect(),
        );
        if self.primed {
            let mut vanished = Vec::new();
            merge(&self.nodes, &cur_nodes, |m| match m {
                Merged::Old(id) => vanished.push(id),
                Merged::New(id) => delta.recovered_nodes.push(id),
                Merged::Both(id, &(old_cpu, old_mem), &(cpu, mem)) => {
                    if old_cpu == 0.0 && cpu > 0.0 {
                        delta.recovered_nodes.push(id);
                    } else if old_cpu > 0.0 && cpu == 0.0 {
                        delta.dead_nodes.push(id);
                    } else if (old_cpu, old_mem) != (cpu, mem) {
                        delta.capacity_changed_nodes.push(id);
                    }
                }
            });
            delta.dead_nodes.append(&mut vanished);
        }

        // --- apps: intensity drift beyond the tolerance. ---
        let cur_apps = sorted_last_wins(inputs.apps.iter().map(|a| (a.id, a.lambda)).collect());
        if self.primed {
            let mut vanished = Vec::new();
            merge(&self.apps, &cur_apps, |m| match m {
                Merged::Old(id) => vanished.push(id),
                Merged::New(id) => delta.drifted_apps.push(id),
                Merged::Both(id, &old, &lambda) => {
                    if drifted(old, lambda) {
                        delta.drifted_apps.push(id);
                    }
                }
            });
            delta.drifted_apps.append(&mut vanished);
        }

        // --- jobs: arrivals, completions, lifecycle/node moves, work
        // drift. Completed jobs leave the problem, so completion shows up
        // as a fingerprint disappearing. `active()` walks the live index
        // in id order and skips completed jobs. ---
        let cur_jobs: Vec<(JobId, JobPrint)> = inputs
            .jobs
            .active()
            .filter_map(|job| {
                let tag = match job.state {
                    JobState::Pending => 0u8,
                    JobState::Running { .. } => 1,
                    JobState::Suspended { .. } => 2,
                    JobState::Completed { .. } => return None,
                };
                let print = JobPrint {
                    node: job.state.node(),
                    tag,
                    remaining: job.remaining.as_f64(),
                };
                Some((job.id, print))
            })
            .collect();
        let primed = self.primed;
        merge(&self.jobs, &cur_jobs, |m| match m {
            Merged::Old(id) => {
                if primed {
                    delta.completed_jobs.push(id);
                }
            }
            Merged::New(id) => delta.arrived_jobs.push(id),
            Merged::Both(id, old, print) => {
                if old.tag != print.tag
                    || old.node != print.node
                    || drifted(old.remaining, print.remaining)
                {
                    delta.resized_jobs.push(id);
                }
            }
        });

        self.primed = true;
        self.nodes = cur_nodes;
        self.apps = cur_apps;
        self.jobs = cur_jobs;
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_jobs::JobSpec;
    use slaq_perfmodel::TransactionalSpec;
    use slaq_types::{CpuMhz, JobId, MemMb, NodeId, SimDuration, Work};
    use slaq_utility::{CompletionGoal, ResponseTimeGoal};
    use std::collections::BTreeMap;

    fn job_spec(work_secs: f64) -> JobSpec {
        JobSpec {
            name: "snap".into(),
            total_work: Work::from_power_secs(CpuMhz::new(3000.0), work_secs),
            max_speed: CpuMhz::new(3000.0),
            mem: MemMb::new(1280),
            goal: CompletionGoal::relative(
                SimTime::ZERO,
                SimDuration::from_secs(work_secs),
                1.25,
                2.0,
            )
            .unwrap(),
        }
    }

    #[test]
    fn capture_is_detached_from_the_live_world() {
        let nodes = vec![NodeCapacity {
            id: NodeId::new(0),
            cpu: CpuMhz::new(12_000.0),
            mem: MemMb::new(4096),
        }];
        let mut jobs = JobManager::new();
        jobs.submit(job_spec(1000.0), SimTime::ZERO).unwrap();
        let mut placement = Placement::empty();
        placement
            .jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        let inputs = ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        };
        let snap = SensingSnapshot::capture(&inputs);

        // The live world moves on; the snapshot does not.
        jobs.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::from_secs(600.0))
            .unwrap();
        placement.jobs.clear();

        assert_eq!(snap.now, SimTime::from_secs(600.0));
        assert_eq!(snap.jobs.len(), 1);
        assert!(matches!(
            snap.jobs.job(JobId::new(0)).unwrap().state,
            slaq_jobs::JobState::Pending
        ));
        assert_eq!(snap.current.jobs.len(), 1);

        // And it lends itself back out as equivalent inputs.
        let lent = snap.inputs();
        assert_eq!(lent.now, snap.now);
        assert_eq!(lent.current.job_node(JobId::new(0)), Some(NodeId::new(0)));
        assert_eq!(lent.nodes.len(), 1);
    }

    #[test]
    fn delta_tracker_diffs_consecutive_cycles() {
        let node = |cpu: f64| NodeCapacity {
            id: NodeId::new(0),
            cpu: CpuMhz::new(cpu),
            mem: MemMb::new(4096),
        };
        let placement = Placement::empty();
        let mut jobs = JobManager::new();
        jobs.submit(job_spec(1000.0), SimTime::ZERO).unwrap();
        let mut tracker = DeltaTracker::new(0.0);

        // First observation: unprimed — everything reads as arrived, so
        // the hint is structural and the solver takes the full path.
        let nodes = vec![node(12_000.0)];
        let first = tracker.observe(&ControlInputs {
            now: SimTime::ZERO,
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(first.arrived_jobs, vec![JobId::new(0)]);
        assert!(first.is_structural());

        // Quiet cycle: nothing changed, nothing reported.
        let quiet = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(600.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert!(quiet.is_empty(), "{quiet:?}");

        // A job starts (lifecycle + node change), another arrives, and
        // the node's sensed capacity collapses to zero (outage).
        jobs.job_mut(JobId::new(0))
            .unwrap()
            .start(NodeId::new(0), SimTime::from_secs(600.0))
            .unwrap();
        jobs.submit(job_spec(500.0), SimTime::from_secs(900.0))
            .unwrap();
        let dead = vec![node(0.0)];
        let churn = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(1200.0),
            nodes: &dead,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(churn.resized_jobs, vec![JobId::new(0)]);
        assert_eq!(churn.arrived_jobs, vec![JobId::new(1)]);
        assert_eq!(churn.dead_nodes, vec![NodeId::new(0)]);
        assert!(churn.is_structural());

        // Recovery is reported symmetrically.
        let back = tracker.observe(&ControlInputs {
            now: SimTime::from_secs(1800.0),
            nodes: &nodes,
            current: &placement,
            jobs: &jobs,
            apps: &[],
        });
        assert_eq!(back.recovered_nodes, vec![NodeId::new(0)]);
        assert!(back.resized_jobs.is_empty());
    }

    /// The map-based tracker the merge-based one replaced, verbatim:
    /// fingerprints rebuilt into `BTreeMap`s every cycle from every job
    /// ever submitted. Kept only as the differential oracle below.
    #[derive(Default)]
    struct MapTracker {
        primed: bool,
        tolerance: f64,
        nodes: BTreeMap<NodeId, (f64, u64)>,
        apps: BTreeMap<AppId, f64>,
        jobs: BTreeMap<JobId, JobPrint>,
    }

    impl MapTracker {
        fn observe(&mut self, inputs: &ControlInputs<'_>) -> SolveDelta {
            let mut delta = SolveDelta::default();
            let drifted =
                |old: f64, new: f64, tol: f64| (new - old).abs() > tol * old.abs().max(1.0);
            let mut cur_nodes = BTreeMap::new();
            for n in inputs.nodes {
                cur_nodes.insert(n.id, (n.cpu.as_f64(), n.mem.as_u64()));
            }
            if self.primed {
                for (&id, &(cpu, mem)) in &cur_nodes {
                    match self.nodes.get(&id) {
                        None => delta.recovered_nodes.push(id),
                        Some(&(old_cpu, old_mem)) => {
                            if old_cpu == 0.0 && cpu > 0.0 {
                                delta.recovered_nodes.push(id);
                            } else if old_cpu > 0.0 && cpu == 0.0 {
                                delta.dead_nodes.push(id);
                            } else if (old_cpu, old_mem) != (cpu, mem) {
                                delta.capacity_changed_nodes.push(id);
                            }
                        }
                    }
                }
                for &id in self.nodes.keys() {
                    if !cur_nodes.contains_key(&id) {
                        delta.dead_nodes.push(id);
                    }
                }
            }
            let mut cur_apps = BTreeMap::new();
            for a in inputs.apps {
                cur_apps.insert(a.id, a.lambda);
            }
            if self.primed {
                for (&id, &lambda) in &cur_apps {
                    match self.apps.get(&id) {
                        None => delta.drifted_apps.push(id),
                        Some(&old) if drifted(old, lambda, self.tolerance) => {
                            delta.drifted_apps.push(id)
                        }
                        Some(_) => {}
                    }
                }
                for &id in self.apps.keys() {
                    if !cur_apps.contains_key(&id) {
                        delta.drifted_apps.push(id);
                    }
                }
            }
            let mut cur_jobs = BTreeMap::new();
            for job in inputs.jobs.jobs() {
                let tag = match job.state {
                    JobState::Pending => 0u8,
                    JobState::Running { .. } => 1,
                    JobState::Suspended { .. } => 2,
                    JobState::Completed { .. } => continue,
                };
                cur_jobs.insert(
                    job.id,
                    JobPrint {
                        node: job.state.node(),
                        tag,
                        remaining: job.remaining.as_f64(),
                    },
                );
            }
            for (&id, print) in &cur_jobs {
                match self.jobs.get(&id) {
                    None => delta.arrived_jobs.push(id),
                    Some(old) => {
                        if old.tag != print.tag
                            || old.node != print.node
                            || drifted(old.remaining, print.remaining, self.tolerance)
                        {
                            delta.resized_jobs.push(id);
                        }
                    }
                }
            }
            if self.primed {
                for &id in self.jobs.keys() {
                    if !cur_jobs.contains_key(&id) {
                        delta.completed_jobs.push(id);
                    }
                }
            }
            self.primed = true;
            self.nodes = cur_nodes;
            self.apps = cur_apps;
            self.jobs = cur_jobs;
            delta
        }
    }

    fn app_spec() -> TransactionalSpec {
        TransactionalSpec {
            name: "shop".into(),
            service_per_request: Work::new(2000.0),
            rt_goal: ResponseTimeGoal::new(SimDuration::from_secs(0.5)).unwrap(),
            mem_per_instance: MemMb::new(1024),
            max_instances: 8,
            min_instances: 1,
            u_cap: 0.9,
        }
    }

    /// One random world event: `(kind, a, b, factor)`.
    type Op = (u8, u32, u32, f64);

    /// Apply `op` to the world. Illegal lifecycle moves are skipped.
    /// `hidden` marks nodes left out of the sensed list (vanished ids).
    fn apply(
        op: Op,
        now: SimTime,
        jobs: &mut JobManager,
        nodes: &mut [NodeCapacity],
        hidden: &mut [bool],
        apps: &mut Vec<AppObservation>,
    ) {
        let (kind, a, b, f) = op;
        let node = NodeId::new(b % nodes.len() as u32);
        let pick =
            |jobs: &JobManager| (!jobs.is_empty()).then(|| JobId::new(a % jobs.len() as u32));
        match kind {
            // Arrival.
            0 | 1 => {
                jobs.submit(job_spec(100.0 + f * 1000.0), now).unwrap();
            }
            // Start or resume.
            2 | 3 => {
                if let Some(id) = pick(jobs) {
                    let job = jobs.job_mut(id).unwrap();
                    let _ = job.start(node, now).or_else(|_| job.resume(node));
                }
            }
            // Suspend.
            4 => {
                if let Some(id) = pick(jobs) {
                    let _ = jobs.job_mut(id).unwrap().suspend();
                }
            }
            // Migrate.
            5 => {
                if let Some(id) = pick(jobs) {
                    let _ = jobs.job_mut(id).unwrap().migrate(node);
                }
            }
            // Completion through `job_mut`, behind the manager's back.
            6 => {
                if let Some(id) = pick(jobs) {
                    let job = jobs.job_mut(id).unwrap();
                    job.advance(CpuMhz::new(3000.0), now, SimDuration::from_secs(1e9));
                }
            }
            // Progress (and completions) through the manager.
            7 => {
                jobs.advance_running(now, SimDuration::from_secs(f * 200.0), |_| {
                    CpuMhz::new(3000.0)
                });
            }
            // Work drift (elasticity).
            8 => {
                if let Some(id) = pick(jobs) {
                    let job = jobs.job_mut(id).unwrap();
                    job.remaining = job.remaining * (0.5 + f);
                }
            }
            // Node outage, recovery or capacity change.
            9 => {
                let n = &mut nodes[node.index()];
                n.cpu = match a % 3 {
                    0 => CpuMhz::ZERO,
                    1 => CpuMhz::new(12_000.0),
                    _ => CpuMhz::new(12_000.0 * f),
                };
            }
            // A node id vanishes from (or returns to) the sensed list.
            10 => hidden[node.index()] = !hidden[node.index()],
            // App arrival, departure or intensity drift.
            _ => match a % 3 {
                0 => apps.push(AppObservation {
                    id: AppId::new(b % 4),
                    spec: app_spec(),
                    lambda: f * 10.0,
                    affinity: Vec::new(),
                }),
                1 if !apps.is_empty() => {
                    apps.remove(b as usize % apps.len());
                }
                _ => {
                    if let Some(app) = apps.first_mut() {
                        app.lambda *= 1.0 + f * 0.1;
                    }
                }
            },
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The merge over `active()` reports exactly the delta the
        /// map-based tracker over the whole history reports, cycle after
        /// cycle: arrivals, completions (through the manager and through
        /// `job_mut`), suspends, resumes, migrations, work drift, node
        /// outages, capacity changes and vanishing ids, app churn (with
        /// repeated ids), shuffled and duplicated node entries, both
        /// tolerances, and a fresh unprimed
        /// tracker pair swapped in at a random cycle.
        #[test]
        fn prop_merge_tracker_matches_map_tracker(
            cycles in proptest::collection::vec(
                proptest::collection::vec((0u8..12, 0u32..64, 0u32..64, 0.0..1.0f64), 0..8),
                1..10,
            ),
            tol_sel in 0u8..2,
            restart_at in 0usize..12,
            reverse_nodes in 0u8..2,
        ) {
            let tolerance = if tol_sel == 0 { 0.0 } else { 0.05 };
            let mut jobs = JobManager::new();
            let mut nodes: Vec<NodeCapacity> = (0..4)
                .map(|i| NodeCapacity {
                    id: NodeId::new(i),
                    cpu: CpuMhz::new(12_000.0),
                    mem: MemMb::new(4096),
                })
                .collect();
            let mut hidden = vec![false; nodes.len()];
            let mut apps = Vec::new();
            let placement = Placement::empty();
            let mut merged = DeltaTracker::new(tolerance);
            let mut oracle = MapTracker { tolerance, ..MapTracker::default() };
            for (c, ops) in cycles.iter().enumerate() {
                let now = SimTime::from_secs(c as f64 * 600.0);
                for &op in ops {
                    apply(op, now, &mut jobs, &mut nodes, &mut hidden, &mut apps);
                }
                if c == restart_at {
                    merged = DeltaTracker::new(tolerance);
                    oracle = MapTracker { tolerance, ..MapTracker::default() };
                }
                let mut sensed: Vec<NodeCapacity> = nodes
                    .iter()
                    .zip(&hidden)
                    .filter(|&(_, &h)| !h)
                    .map(|(n, _)| *n)
                    .collect();
                if reverse_nodes == 1 {
                    // Shuffled order, and a stale duplicate of the first
                    // node listed ahead of it (the later entry wins).
                    sensed.reverse();
                    if let Some(&first) = sensed.last() {
                        sensed.insert(0, NodeCapacity { cpu: CpuMhz::new(1.0), ..first });
                    }
                }
                let inputs = ControlInputs {
                    now,
                    nodes: &sensed,
                    current: &placement,
                    jobs: &jobs,
                    apps: &apps,
                };
                prop_assert_eq!(merged.observe(&inputs), oracle.observe(&inputs), "cycle {}", c);
            }
        }
    }
}
