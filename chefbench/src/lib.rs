//! chefbench — one end-to-end + per-layer benchmark for the chef stack.
//!
//! See `README.md` for how to run it, what every metric means, and which
//! layer metric is predicted to move which end-to-end metric.

pub mod check;
pub mod compare;
pub mod guests;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
