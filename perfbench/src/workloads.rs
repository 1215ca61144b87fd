//! The benchmark's workloads: each is a generator from a seed to a
//! [`ScenarioSpec`]. The program under test only ever sees the spec.
//!
//! Why these three: `paper` is the reproduction's reference point and is
//! bound by the utility equalizer; `fleet` is the same experiment at
//! fleet scale, bound by the simulator's per-event work between cycles;
//! `zoned-apps` drives the same layers through their other arms — many
//! apps instead of one, the sharded placement engine, the routing tier
//! and outage events.

use slaq_core::scenario::PaperParams;
use slaq_core::{
    AppSpec, ClusterTopology, ControllerSpec, JobStreamSpec, NodePoolSpec, RoutingSpec,
    ScenarioSpec, TimingSpec,
};
use slaq_sim::{ChaosSpec, FlapSpec, ZoneStormSpec};
use slaq_workloads::{ArrivalProcess, IntensityTrace, JobMix};

/// One benchmark workload: a generator from a seed to specs, run as an
/// ensemble of `replicates` specs per invocation.
pub struct Workload {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Specs per invocation. Several of the workloads' SLA outcomes swing
    /// with the seed (the paper's goal-met share ranges 0–0.44 over
    /// seeds 1–20), so every figure is taken over an ensemble drawn from
    /// the seed. The size is fixed, so quality figures never depend on
    /// machine speed; one round takes 20–30 s on 2 vCPUs.
    pub replicates: usize,
    build: fn(u64) -> ScenarioSpec,
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "paper",
        replicates: 384,
        build: paper,
    },
    Workload {
        name: "fleet",
        replicates: 14,
        build: fleet,
    },
    Workload {
        name: "zoned-apps",
        replicates: 11,
        build: zoned_apps,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The spec of replicate `i` of `seed`. Replicates of different
    /// seeds never share a spec seed (for seeds below 2^48).
    pub fn spec(&self, seed: u64, i: usize) -> ScenarioSpec {
        (self.build)(seed.wrapping_mul(1 << 16).wrapping_add(i as u64))
    }
}

/// The source paper's experiment: 25 four-way nodes, one constant
/// transactional app, a Poisson job stream, 600 s cycles over 72 000 s.
fn paper(seed: u64) -> ScenarioSpec {
    PaperParams {
        seed,
        ..PaperParams::default()
    }
    .spec_named("paper")
}

const FLEET_NODES: u32 = 250;
const FLEET_PERIOD_SECS: f64 = 150.0;
const FLEET_CYCLES: f64 = 100.0;

/// `PaperParams::small` scaled to 250 nodes in one zone: traffic grows
/// with the node count, and jobs (8 s mean spacing, ≈1900 of them) bring
/// the aggregate pressure to ≈97 %. Above 100 % the growing backlog makes
/// the outcome bimodal in the seed (goal-met share 0.08 or 0.27 at the
/// small variant's scaled rate), which no ensemble this size averages
/// out. A 150 s period gives 101 cycles.
fn fleet(seed: u64) -> ScenarioSpec {
    let small = PaperParams::small();
    let scale = FLEET_NODES as f64 / small.nodes as f64;
    let horizon = FLEET_PERIOD_SECS * FLEET_CYCLES;
    PaperParams {
        nodes: FLEET_NODES,
        lambda: small.lambda * scale,
        total_jobs: 2000,
        mean_interarrival_secs: 8.0,
        tail_start_secs: horizon,
        tail_interarrival_secs: 8.0,
        horizon_secs: horizon,
        control_period_secs: FLEET_PERIOD_SECS,
        seed,
        ..small
    }
    .spec_named("fleet")
}

const ZONES: u32 = 4;
const NODES_PER_ZONE: u32 = 60;
const APPS: u32 = 32;
const DIURNAL_PERIOD_SECS: f64 = 24_000.0;

/// Four zones of 60 nodes (so the default zone sharding picks the
/// sharded engine), 32 diurnal apps on staggered phases behind affinity
/// routing, a moderate job stream, recurring zone storms and flapping
/// nodes. Apps ask for ≈42 % of the cluster at full utility and jobs
/// (10 s spacing) bring ≈42 %; outages take a few percent more. At 8 s
/// spacing the goal-met share ranged 0.37–0.57 over seeds 1–8.
fn zoned_apps(seed: u64) -> ScenarioSpec {
    let small = PaperParams::small();
    let pools = (0..ZONES)
        .map(|z| NodePoolSpec {
            count: NODES_PER_ZONE,
            cpus_per_node: small.cpus_per_node,
            core_mhz: small.core_mhz,
            node_mem_mb: small.node_mem_mb,
            zone: Some(format!("zone-{z}")),
        })
        .collect();
    let apps = (0..APPS)
        .map(|i| AppSpec {
            name: format!("app-{i:02}"),
            trace: IntensityTrace::Diurnal {
                base: 30.0,
                amplitude: 15.0,
                period_secs: DIURNAL_PERIOD_SECS,
                phase_secs: DIURNAL_PERIOD_SECS * i as f64 / APPS as f64,
            },
            service_mhz_s: small.service_mhz_s,
            rt_goal_secs: small.rt_goal_secs,
            u_cap: small.u_cap,
            mem_mb: small.app_mem_mb,
            min_instances: 1,
            max_instances: 16,
            estimator_alpha: 0.4,
            slo: None,
        })
        .collect();
    ScenarioSpec {
        name: "zoned-apps".into(),
        seed,
        cluster: ClusterTopology { pools },
        timing: TimingSpec {
            control_period_secs: 200.0,
            horizon_secs: 20_000.0,
            ..TimingSpec::default()
        },
        controller: ControllerSpec {
            routing: RoutingSpec::Affinity {
                temperature: 0.0,
                warm_gain: 0.5,
                warm_alpha: 0.5,
                load_penalty: 0.4,
                placement_bias: 600.0,
            },
            ..ControllerSpec::default()
        },
        apps,
        job_streams: vec![JobStreamSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::poisson_constant(10.0).expect("positive mean"),
            max_jobs: 2000,
            mix: JobMix::uniform(small.job_template()),
            seed_offset: 0,
        }],
        outages: vec![],
        chaos: Some(ChaosSpec {
            zone_storms: Some(ZoneStormSpec {
                first_secs: 2_400.0,
                period_secs: 4_800.0,
                duration_secs: 1_200.0,
                zones_per_storm: 1,
                node_fraction: 0.25,
            }),
            flaps: Some(FlapSpec {
                nodes: 8,
                first_secs: 1_000.0,
                period_secs: 3_600.0,
                down_secs: 600.0,
            }),
            ..ChaosSpec::default()
        }),
        overcommit: None,
        elasticity: None,
    }
}
