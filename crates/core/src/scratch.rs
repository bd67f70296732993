//! Reusable per-pipeline working memory.
//!
//! One scheduling instance allocates a handful of short-lived buffers on
//! its hot path: the timeline's boundary/subinterval/span vectors, the
//! per-heavy-subinterval DER list of Algorithm 2, the `PackItem` staging
//! vector of Algorithm 1, and the per-task scale factors of the final
//! schedule. [`Scratch`] owns all of them so a batch driver (the
//! `esched-engine` worker loop, a fuzz harness, a benchmark) can run
//! thousands of instances while touching the allocator only when an
//! instance outgrows every previous one.
//!
//! The allocating entry points (`der_schedule`, `allocate_der`, …) are
//! thin wrappers over their `_with` twins with a fresh `Scratch`, so
//! one-shot callers never see this type.

use esched_subinterval::TimelineScratch;
use esched_types::TaskId;

use crate::packing::PackItem;

/// Reusable buffers for one scheduling pipeline
/// (timeline → ideal → allocate → refine → pack).
///
/// Not shared across threads — each worker owns one. Contents are
/// unspecified between calls; every consumer clears what it borrows.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Timeline boundary/subinterval/span buffers
    /// (see [`TimelineScratch`]).
    pub timeline: TimelineScratch,
    /// Per-heavy-subinterval `(task, DER)` list of Algorithm 2.
    pub ders: Vec<(TaskId, f64)>,
    /// Flat per-column DER weights, aligned with the column's CSR cells.
    /// The vectorized emit multiplies this slice straight into the
    /// column's value slab.
    pub der_w: Vec<f64>,
    /// Remaining-weight suffix sums of the water-filling allocator.
    pub suffix: Vec<f64>,
    /// Bounded top-`(m+2)` head of the water-fill planner:
    /// `(cell offset, task, weight)` in canonical order.
    pub wf_head: Vec<(usize, TaskId, f64)>,
    /// Near-zero-weight tail of the water-fill planner:
    /// `(cell offset, weight)` in canonical order.
    pub wf_tiny: Vec<(usize, f64)>,
    /// Per-task `[exec.start, exec.end, freq]` records the staging gather
    /// reads — one packed load per cell instead of straddling the ideal
    /// solution's separate interval and frequency arrays.
    pub packed: Vec<[f64; 3]>,
    /// Clean columns of the online repair's changed region, saved while
    /// the availability matrix is spliced to its new shape.
    pub saved_cells: Vec<f64>,
    /// Per-subinterval packing items of Algorithm 1.
    pub items: Vec<PackItem>,
    /// Per-task scale factors `d_i / A_i` of the final schedule.
    pub scale: Vec<f64>,
}

impl Scratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}
