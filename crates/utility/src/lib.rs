//! # slaq-utility — utility functions and utility-equalization solvers
//!
//! The paper's central mechanism: *"We use monotonic and continuous utility
//! functions to represent the satisfaction of both transactional and
//! long-running workloads"*, and the allocation algorithm *"operates by
//! continuously stealing resources \[from\] the more satisfied applications to
//! later be given to the less satisfied applications"* until utility is
//! equalized.
//!
//! This crate provides:
//!
//! * [`PiecewiseLinear`] — monotone, continuous piecewise-linear curves with
//!   exact inverses, the representation used for every utility function in
//!   the system (`curve` module).
//! * SLA goal vocabulary (`goal` module): [`CompletionGoal`] for
//!   long-running jobs (utility of completion time) and
//!   [`ResponseTimeGoal`] for transactional applications (utility of
//!   response time), each compiling to a [`PiecewiseLinear`].
//! * The [`UtilityOfCpu`] abstraction (`entity` module): a monotone
//!   non-decreasing mapping from allocated CPU power to utility, with an
//!   inverse demand query ("how much CPU to reach utility *u*?"). Every
//!   transactional application and every long-running job is presented to
//!   the equalizer as one such entity.
//! * The equalization solvers (`equalize` module):
//!   [`equalize_bisection`] (exact max–min via bisection on the common
//!   utility level) and [`equalize_weighted`] (importance-scaled
//!   shortfalls). The paper's iterative steal-from-the-most-satisfied loop
//!   is kept as a test-only oracle; tests assert it agrees with bisection.

#![deny(missing_docs)]
#![warn(clippy::all)]

pub mod curve;
pub mod entity;
pub mod equalize;
pub mod goal;

pub use curve::PiecewiseLinear;
pub use entity::{CappedLinearUtility, TabulatedUtility, UtilityOfCpu};
pub use equalize::{
    equalize_bisection, equalize_weighted, EntityAllocation, EqEntity, EqualizeOptions,
    EqualizedAllocation,
};
pub use goal::{CompletionGoal, ResponseTimeGoal};

/// Utilities live in `[U_MIN, U_MAX]` across the workspace.
pub const U_MIN: f64 = -1.0;
/// See [`U_MIN`].
pub const U_MAX: f64 = 1.0;
