//! # esched-sim
//!
//! A discrete-event multicore DVFS simulator.
//!
//! `esched-core` produces schedules analytically; this crate *executes*
//! them: segment boundaries become events, per-core state machines
//! integrate energy over time, work is credited as segments complete, and
//! deadline events audit whether each task got its requirement. Because
//! the simulator shares no code with the analytic energy computation, an
//! agreement between the two (asserted across the test suite) is a real
//! end-to-end check of both.
//!
//! * [`event`] — events, and the event list the event loop sorts once per
//!   run,
//! * [`machine`] — per-core sleep/active state machines,
//! * [`engine`] — [`simulate`] and [`simulate_traced`]. `simulate` walks a
//!   canonical schedule once and runs the event loop only when that single
//!   sweep cannot show its report equal to the loop's; `simulate_traced`
//!   always runs the event loop,
//! * [`metrics`] — the [`SimReport`],
//! * [`online`] — an online global-EDF dispatcher driven by per-task
//!   frequency assignments (the paper's "easy to implement" claim),
//! * [`trace`] — ASCII Gantt rendering and per-task summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod event;
mod fast;
pub mod machine;
pub mod metrics;
pub mod online;
pub mod svg;
pub mod trace;

pub use engine::{log_to_csv, simulate, simulate_traced, LoggedEvent};
pub use event::{Event, EventKind};
pub use machine::{Core, CoreState};
pub use metrics::{Conflict, SimReport};
pub use online::{dispatch, dispatch_edf, DispatchPolicy, OnlineOutcome};
pub use svg::{render_svg, save_svg, SvgOptions};
pub use trace::{ascii_gantt, chrome_schedule_trace, save_chrome_trace, task_summary};
