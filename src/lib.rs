//! # slaq — SLA-driven placement of heterogeneous workloads
//!
//! Façade crate re-exporting the full public API of the workspace.
//!
//! Reproduction of Carrera, Steinder, Whalley, Torres, Ayguadé:
//! *"Managing SLAs of Heterogeneous Workloads using Dynamic Application
//! Placement"*, HPDC 2008. See `README.md` for a tour, `DESIGN.md` for
//! the system inventory and `examples/` for runnable entry points:
//!
//! ```text
//! cargo run --example quickstart
//! cargo run --release --example mixed_datacenter
//! cargo run --example job_scheduler
//! cargo run --release --example capacity_planning
//! cargo run --release --example run_scenario -- --preset paper-small
//! ```
//!
//! Layer map (bottom-up):
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `slaq-types` | units, time, ids, cluster spec |
//! | [`obs`] | `slaq-obs` | spans, counters, histograms, trace export |
//! | [`utility`] | `slaq-utility` | utility curves, SLA goals, equalizers |
//! | [`perfmodel`] | `slaq-perfmodel` | M/G/1-PS model, demand estimation |
//! | [`flow`] | `slaq-flow` | max-flow / min-cost-flow kernel |
//! | [`placement`] | `slaq-placement` | the placement controller (APC) |
//! | [`jobs`] | `slaq-jobs` | job lifecycle + hypothetical utility |
//! | [`workloads`] | `slaq-workloads` | arrival streams, intensity traces |
//! | [`sim`] | `slaq-sim` | the data-center simulator |
//! | [`routing`] | `slaq-routing` | request router + metrics aggregator |
//! | [`core`] | `slaq-core` | the paper's controller, baselines, scenarios |

#![warn(clippy::all)]

pub use slaq_core as core;
pub use slaq_flow as flow;
pub use slaq_jobs as jobs;
pub use slaq_obs as obs;
pub use slaq_perfmodel as perfmodel;
pub use slaq_placement as placement;
pub use slaq_routing as routing;
pub use slaq_sim as sim;
pub use slaq_types as types;
pub use slaq_utility as utility;
pub use slaq_workloads as workloads;

/// Commonly used items, importable with `use slaq::prelude::*`.
pub mod prelude {
    pub use slaq_core::scenario::PaperParams;
    pub use slaq_core::{
        AppSpec, ClusterTopology, ControllerKind, ControllerSpec, JobStreamSpec, NodePoolSpec,
        OutageSpec, Scenario, ScenarioApp, ScenarioSpec, ShardingSpec, StaticPartitionController,
        TimingSpec, TransactionalFirstController, UtilityController,
    };
    pub use slaq_jobs::{Job, JobManager, JobSpec, JobState, JobUtility};
    pub use slaq_perfmodel::{PsQueue, TransactionalModel, TransactionalSpec};
    pub use slaq_placement::{
        AppRequest, JobRequest, NodeCapacity, Placement, PlacementConfig, PlacementProblem,
        ShardMap, ShardPlan, ShardedSolver, Solver,
    };
    pub use slaq_routing::{Aggregator, RouteOutcome, Router, RouterConfig, RoutingTier};
    pub use slaq_sim::{
        Controller, MetricsSink, OverheadConfig, SimConfig, Simulator, TransactionalRuntime,
    };
    pub use slaq_types::{
        AppId, ClusterSpec, CpuMhz, EntityId, JobId, MemMb, NodeId, SimDuration, SimTime, Work,
    };
    pub use slaq_utility::{
        equalize_bisection, CompletionGoal, EqEntity, EqualizeOptions, PiecewiseLinear,
        ResponseTimeGoal, UtilityOfCpu,
    };
    pub use slaq_workloads::{
        generate_job_stream, ArrivalProcess, IntensityTrace, JobMix, JobTemplate, RateSchedule,
        TemplateClass,
    };
}
