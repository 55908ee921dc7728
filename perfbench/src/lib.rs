//! Statement-level benchmark of the gql engine: FLWR statements timed
//! from program text to returned collection, writes timed to their
//! durable acknowledgement, on three seeded workloads, with a separate
//! traced run that splits statement time by layer.
//!
//! ```text
//! python3 perfbench/run.py --workload ppi_flwr --seed 1 --seconds 10 --trace 0
//! ```

pub mod bench;
pub mod catalog;
pub mod measure;
pub mod trace;
pub mod workload;
