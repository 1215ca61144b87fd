//! Work-conserving per-node CPU sharing.
//!
//! The controller's placement carries *guarantees* (hypervisor minimum
//! shares). Real hypervisors are work-conserving: capacity a VM leaves
//! idle flows to its node-mates. This module computes the **effective
//! speeds** that result:
//!
//! 1. every placed entity receives its guarantee;
//! 2. node spare capacity (including guarantees of blocked VMs) is
//!    water-filled across *running jobs* first, each capped at its
//!    maximum speed — this is what lets SLA-hopeless jobs (zero demand,
//!    zero guarantee) still drain to completion;
//! 3. whatever remains goes to the node's transactional instances
//!    (proportional to their guarantees, evenly when all are zero).

use slaq_placement::problem::NodeCapacity;
use slaq_placement::Placement;
use slaq_types::{AppId, CpuMhz, JobId, NodeId};
use std::collections::BTreeMap;

/// Compute effective speeds for every running job and every application
/// (cluster-wide aggregate over its instances).
///
/// Job-side inputs and outputs are dense, indexed by [`JobId::index`]:
///
/// * `job_caps` — per-job maximum speed; a job without one (`None`, or
///   an id past the end) is capped at its guarantee;
/// * `blocked` — jobs currently paying a start/resume/migration latency
///   (an id past the end is not blocked): they run at zero speed and
///   their guarantee joins the spare pool;
/// * `cap_apps` — when `true`, transactional instances are *limited* to
///   their guarantees (the paper's middleware enforces the computed
///   fine-grained allocations as hypervisor limits, so the transactional
///   tier's delivered power equals the controller's decision exactly);
///   when `false` leftover spare flows to the instances (fully
///   work-conserving hypervisor). Jobs are always work-conserving up to
///   their speed caps — that is what drains SLA-hopeless jobs;
/// * `job_speed` — overwritten with every job's speed, sized to the
///   highest placed id; jobs not placed on a node of `nodes` read zero.
///
/// Returns the per-application speeds.
pub fn effective_speeds(
    nodes: &[NodeCapacity],
    placement: &Placement,
    job_caps: &[Option<CpuMhz>],
    blocked: &[bool],
    cap_apps: bool,
    job_speed: &mut Vec<CpuMhz>,
) -> BTreeMap<AppId, CpuMhz> {
    // Bucket every placed entity by node: one pass each over jobs and
    // slices, then a stable sort by node, so each node's jobs stay in id
    // order and its slices in app order — exactly the order a per-node
    // rescan of the placement visits them. Every per-node float sequence
    // (and so every speed) is unchanged. Entities on a node absent from
    // `nodes` are never visited and stay speed-less.
    let mut jobs: Vec<(NodeId, JobId, CpuMhz)> = placement
        .jobs
        .iter()
        .map(|(&j, &(n, g))| (n, j, g))
        .collect();
    jobs.sort_by_key(|&(n, ..)| n);
    let mut apps: Vec<(NodeId, AppId, CpuMhz)> = placement
        .apps
        .iter()
        .flat_map(|(&a, slices)| slices.iter().map(move |(&n, &g)| (n, a, g)))
        .collect();
    apps.sort_by_key(|&(n, ..)| n);

    job_speed.clear();
    job_speed.resize(
        placement
            .jobs
            .last_key_value()
            .map_or(0, |(j, _)| j.index() + 1),
        CpuMhz::ZERO,
    );
    let mut app_speed: BTreeMap<AppId, CpuMhz> = BTreeMap::new();
    // (id, speed, cap) of the node's runnable jobs; reused across nodes.
    let mut runnable: Vec<(JobId, CpuMhz, CpuMhz)> = Vec::new();
    for node in nodes {
        let jobs_here = on_node(&jobs, node.id);
        let apps_here = on_node(&apps, node.id);

        let mut used = CpuMhz::ZERO;
        // Guarantees (blocked jobs run at zero; their share is spare).
        runnable.clear();
        for &(_, j, g) in jobs_here {
            if blocked.get(j.index()).copied().unwrap_or(false) {
                job_speed[j.index()] = CpuMhz::ZERO;
                continue;
            }
            let cap = job_caps.get(j.index()).copied().flatten().unwrap_or(g);
            let g = g.min(cap);
            used += g;
            runnable.push((j, g, cap));
        }
        for &(.., g) in apps_here {
            used += g;
        }
        let mut spare = node.cpu.saturating_sub(used);

        // Water-fill spare across runnable jobs up to their caps. A grant
        // only touches its own job, so testing headroom as each job is
        // visited selects the same jobs as testing them all up front.
        let open = |&(_, s, cap): &(JobId, CpuMhz, CpuMhz)| cap.as_f64() - s.as_f64() > 1e-9;
        loop {
            let n_open = runnable.iter().filter(|r| open(r)).count();
            if n_open == 0 || spare.as_f64() <= 1e-9 {
                break;
            }
            let share = spare / n_open as f64;
            let mut granted_any = false;
            for r in runnable.iter_mut().filter(|r| open(r)) {
                let grant = (r.2 - r.1).min(share).max_zero();
                if grant.as_f64() > 0.0 {
                    r.1 += grant;
                    spare -= grant;
                    granted_any = true;
                }
            }
            if !granted_any {
                break;
            }
        }
        for &(j, s, _) in &runnable {
            job_speed[j.index()] = s;
        }

        // Remaining spare flows to transactional instances (unless the
        // controller's allocations are enforced as limits).
        if !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9 {
            let g_total: f64 = apps_here.iter().map(|(.., g)| g.as_f64()).sum();
            for &(_, a, g) in apps_here {
                let bonus = if g_total > 1e-9 {
                    spare * (g.as_f64() / g_total)
                } else {
                    spare / apps_here.len() as f64
                };
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g + bonus;
            }
        } else {
            for &(_, a, g) in apps_here {
                *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g;
            }
        }
    }
    // A job visited twice (a node listed twice) keeps its last speed.
    app_speed
}

/// The run of `entries` (sorted by node) placed on `node`.
fn on_node<T>(entries: &[(NodeId, T, CpuMhz)], node: NodeId) -> &[(NodeId, T, CpuMhz)] {
    let lo = entries.partition_point(|e| e.0 < node);
    let hi = lo + entries[lo..].partition_point(|e| e.0 == node);
    &entries[lo..hi]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use slaq_types::{JobId, MemMb};
    use std::collections::BTreeSet;

    fn nodes(n: u32, cpu: f64) -> Vec<NodeCapacity> {
        (0..n)
            .map(|i| NodeCapacity {
                id: NodeId::new(i),
                cpu: CpuMhz::new(cpu),
                mem: MemMb::new(4096),
            })
            .collect()
    }

    /// Dense caps: `cap` for each of `ids`, none for the rest.
    fn caps(ids: &[u32], cap: f64) -> Vec<Option<CpuMhz>> {
        let mut caps = vec![None; ids.iter().max().map_or(0, |&i| i as usize + 1)];
        for &i in ids {
            caps[i as usize] = Some(CpuMhz::new(cap));
        }
        caps
    }

    /// `effective_speeds` with a fresh output vector.
    fn speeds(
        nodes: &[NodeCapacity],
        placement: &Placement,
        job_caps: &[Option<CpuMhz>],
        blocked: &[bool],
        cap_apps: bool,
    ) -> (Vec<CpuMhz>, BTreeMap<AppId, CpuMhz>) {
        let mut js = Vec::new();
        let asp = effective_speeds(nodes, placement, job_caps, blocked, cap_apps, &mut js);
        (js, asp)
    }

    #[test]
    fn guarantees_are_enforced() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(2000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(10_000.0));
        let (js, asp) = speeds(&nodes(1, 12_000.0), &p, &caps(&[0], 3000.0), &[], false);
        // No spare: 2000 + 10 000 = 12 000 exactly.
        assert_eq!(js[0], CpuMhz::new(2000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(10_000.0));
    }

    #[test]
    fn spare_goes_to_jobs_first_capped_at_max_speed() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(1000.0)));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(2000.0));
        // Node 12 000: guarantees 4000, spare 8000. Jobs can absorb
        // 2000 each (cap 3000), leaving 4000 for the app.
        let (js, asp) = speeds(&nodes(1, 12_000.0), &p, &caps(&[0, 1], 3000.0), &[], false);
        assert_eq!(js[0], CpuMhz::new(3000.0));
        assert_eq!(js[1], CpuMhz::new(3000.0));
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(6000.0));
    }

    #[test]
    fn zero_guarantee_job_still_drains_via_spare() {
        // The "hopeless job" path: guarantee 0 but node has spare.
        let mut p = Placement::empty();
        p.jobs.insert(JobId::new(0), (NodeId::new(0), CpuMhz::ZERO));
        let (js, _) = speeds(&nodes(1, 12_000.0), &p, &caps(&[0], 3000.0), &[], false);
        assert_eq!(js[0], CpuMhz::new(3000.0));
    }

    #[test]
    fn blocked_jobs_run_at_zero_and_donate_their_guarantee() {
        let mut p = Placement::empty();
        p.jobs
            .insert(JobId::new(0), (NodeId::new(0), CpuMhz::new(3000.0)));
        p.jobs
            .insert(JobId::new(1), (NodeId::new(0), CpuMhz::new(3000.0)));
        let blocked = [true];
        let (js, _) = speeds(
            &nodes(1, 4000.0),
            &p,
            &caps(&[0, 1], 3000.0),
            &blocked,
            false,
        );
        assert_eq!(js[0], CpuMhz::ZERO);
        // Job1: guarantee 3000 (already at cap).
        assert_eq!(js[1], CpuMhz::new(3000.0));
    }

    #[test]
    fn water_fill_respects_unequal_headroom() {
        // Three jobs, guarantees 0, caps 1000/2000/3000; node 4500.
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs.insert(JobId::new(i), (NodeId::new(0), CpuMhz::ZERO));
        }
        let caps_map = [1000.0, 2000.0, 3000.0].map(|c| Some(CpuMhz::new(c)));
        let (js, _) = speeds(&nodes(1, 4500.0), &p, &caps_map, &[], false);
        // Equal-share rounds: 1500 each → job0 capped at 1000, its 500
        // splits 250/250 → job1 1750, job2 1750.
        assert_eq!(js[0], CpuMhz::new(1000.0));
        assert!(js[1].approx_eq(CpuMhz::new(1750.0), 1e-6));
        assert!(js[2].approx_eq(CpuMhz::new(1750.0), 1e-6));
    }

    #[test]
    fn app_spans_nodes_and_aggregates() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(4000.0));
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(1), CpuMhz::new(6000.0));
        let (_, asp) = speeds(&nodes(2, 12_000.0), &p, &[], &[], false);
        // Each node's full spare flows to the only instance there.
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(24_000.0));
    }

    #[test]
    fn zero_guarantee_instances_split_spare_evenly() {
        let mut p = Placement::empty();
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        p.apps
            .entry(AppId::new(1))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::ZERO);
        let (_, asp) = speeds(&nodes(1, 8000.0), &p, &[], &[], false);
        assert_eq!(asp[&AppId::new(0)], CpuMhz::new(4000.0));
        assert_eq!(asp[&AppId::new(1)], CpuMhz::new(4000.0));
    }

    #[test]
    fn empty_placement_produces_empty_maps() {
        let (js, asp) = speeds(&nodes(3, 12_000.0), &Placement::empty(), &[], &[], false);
        assert!(js.is_empty());
        assert!(asp.is_empty());
    }

    #[test]
    fn total_never_exceeds_node_capacity() {
        let mut p = Placement::empty();
        for i in 0..3 {
            p.jobs
                .insert(JobId::new(i), (NodeId::new(0), CpuMhz::new(1000.0)));
        }
        p.apps
            .entry(AppId::new(0))
            .or_default()
            .insert(NodeId::new(0), CpuMhz::new(500.0));
        let (js, asp) = speeds(&nodes(1, 6000.0), &p, &caps(&[0, 1, 2], 3000.0), &[], false);
        let total: f64 = js.iter().map(|c| c.as_f64()).sum::<f64>()
            + asp.values().map(|c| c.as_f64()).sum::<f64>();
        assert!(total <= 6000.0 + 1e-6, "{total}");
        assert!(total >= 6000.0 - 1e-6, "work-conserving: {total}");
    }

    /// The per-node rescan `effective_speeds` replaced, verbatim: for
    /// every node, scan the whole placement for the entities on it and
    /// water-fill with a fresh open list per round. O(N·(J+A)), kept as
    /// the differential oracle for the bucketed version.
    fn rescan_speeds(
        nodes: &[NodeCapacity],
        placement: &Placement,
        job_caps: &BTreeMap<JobId, CpuMhz>,
        blocked: &BTreeSet<JobId>,
        cap_apps: bool,
    ) -> (BTreeMap<JobId, CpuMhz>, BTreeMap<AppId, CpuMhz>) {
        let mut job_speed: BTreeMap<JobId, CpuMhz> = BTreeMap::new();
        let mut app_speed: BTreeMap<AppId, CpuMhz> = BTreeMap::new();
        for node in nodes {
            let jobs_here: Vec<(JobId, CpuMhz)> = placement
                .jobs
                .iter()
                .filter(|&(_, &(n, _))| n == node.id)
                .map(|(&j, &(_, g))| (j, g))
                .collect();
            let apps_here: Vec<(AppId, CpuMhz)> = placement
                .apps
                .iter()
                .filter_map(|(&a, slices)| slices.get(&node.id).map(|&g| (a, g)))
                .collect();
            let mut used = CpuMhz::ZERO;
            let mut runnable: Vec<(JobId, CpuMhz, CpuMhz)> = Vec::new();
            for &(j, g) in &jobs_here {
                if blocked.contains(&j) {
                    job_speed.insert(j, CpuMhz::ZERO);
                    continue;
                }
                let cap = job_caps.get(&j).copied().unwrap_or(g);
                let g = g.min(cap);
                used += g;
                runnable.push((j, g, cap));
            }
            for &(_, g) in &apps_here {
                used += g;
            }
            let mut spare = node.cpu.saturating_sub(used);
            loop {
                let open: Vec<usize> = runnable
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s, cap))| cap.as_f64() - s.as_f64() > 1e-9)
                    .map(|(i, _)| i)
                    .collect();
                if open.is_empty() || spare.as_f64() <= 1e-9 {
                    break;
                }
                let share = spare / open.len() as f64;
                let mut granted_any = false;
                for i in open {
                    let (_, s, cap) = runnable[i];
                    let grant = (cap - s).min(share).max_zero();
                    if grant.as_f64() > 0.0 {
                        runnable[i].1 += grant;
                        spare -= grant;
                        granted_any = true;
                    }
                }
                if !granted_any {
                    break;
                }
            }
            for (j, s, _) in &runnable {
                job_speed.insert(*j, *s);
            }
            if !cap_apps && !apps_here.is_empty() && spare.as_f64() > 1e-9 {
                let g_total: f64 = apps_here.iter().map(|(_, g)| g.as_f64()).sum();
                for &(a, g) in &apps_here {
                    let bonus = if g_total > 1e-9 {
                        spare * (g.as_f64() / g_total)
                    } else {
                        spare / apps_here.len() as f64
                    };
                    *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g + bonus;
                }
            } else {
                for &(a, g) in &apps_here {
                    *app_speed.entry(a).or_insert(CpuMhz::ZERO) += g;
                }
            }
        }
        (job_speed, app_speed)
    }

    /// `(selector, value)` → a CPU amount that is exactly zero one time
    /// in four, so zero guarantees, zero caps and idle nodes all occur.
    fn mhz((sel, v): (u8, f64)) -> CpuMhz {
        if sel == 0 {
            CpuMhz::ZERO
        } else {
            CpuMhz::new(v)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One-pass bucketing over dense inputs is bit-identical to the
        /// per-node rescan over id maps: random placements over up to 6 node ids (some absent from
        /// `nodes`, so their entities stay speed-less), blocked jobs,
        /// zero and cap-limited speeds, missing caps, idle nodes, both
        /// node orders and both `cap_apps` settings.
        #[test]
        fn prop_bucketed_speeds_match_rescan(
            node_cpu in proptest::collection::vec((0u8..4, 0.0..9000.0f64), 1..5),
            jobs in proptest::collection::vec(
                (0u32..6, (0u8..4, 0.0..4000.0f64), (0u8..4, 0.0..4000.0f64), 0u8..4),
                0..12,
            ),
            apps in proptest::collection::vec(
                proptest::collection::vec((0u32..6, (0u8..4, 0.0..6000.0f64)), 0..4),
                0..4,
            ),
            flags in (0u8..2, 0u8..2, 0usize..16),
        ) {
            let mut nodes: Vec<NodeCapacity> = node_cpu
                .iter()
                .enumerate()
                .map(|(i, &c)| NodeCapacity {
                    id: NodeId::new(i as u32),
                    cpu: mhz(c),
                    mem: MemMb::new(4096),
                })
                .collect();
            if flags.0 == 1 {
                nodes.reverse();
            }
            let mut p = Placement::empty();
            let mut job_caps = BTreeMap::new();
            let mut blocked = BTreeSet::new();
            // Ids past the end of the dense inputs read as uncapped and
            // unblocked, so the caps are cut short at a random length and
            // the mask loses its trailing clear entries half the time.
            let cut = flags.2.min(jobs.len());
            let mut dense_caps = vec![None; cut];
            let mut mask = vec![false; jobs.len()];
            for (i, &(n, g, (cap_sel, cap), blk)) in jobs.iter().enumerate() {
                let id = JobId::new(i as u32);
                p.jobs.insert(id, (NodeId::new(n), mhz(g)));
                // Selector 1 leaves the cap out: the guarantee caps it.
                if cap_sel != 1 && i < cut {
                    job_caps.insert(id, mhz((cap_sel, cap)));
                    dense_caps[i] = Some(mhz((cap_sel, cap)));
                }
                if blk == 0 {
                    blocked.insert(id);
                    mask[i] = true;
                }
            }
            if flags.2 % 2 == 1 {
                while mask.last() == Some(&false) {
                    mask.pop();
                }
            }
            for (a, slices) in apps.iter().enumerate() {
                let entry = p.apps.entry(AppId::new(a as u32)).or_default();
                for &(n, g) in slices {
                    entry.insert(NodeId::new(n), mhz(g));
                }
            }
            let cap_apps = flags.1 == 1;
            let (want_jobs, want_apps) = rescan_speeds(&nodes, &p, &job_caps, &blocked, cap_apps);
            let mut got_jobs = vec![CpuMhz::new(-1.0); 3];
            let got_apps = effective_speeds(&nodes, &p, &dense_caps, &mask, cap_apps, &mut got_jobs);
            prop_assert_eq!(got_apps, want_apps);
            prop_assert_eq!(got_jobs.len(), jobs.len());
            for (i, &got) in got_jobs.iter().enumerate() {
                let want = want_jobs.get(&JobId::new(i as u32)).copied().unwrap_or(CpuMhz::ZERO);
                prop_assert_eq!(got.as_f64().to_bits(), want.as_f64().to_bits(), "job {}", i);
            }
        }
    }
}
