//! End-to-end and per-layer benchmark of the any-k query service.
//!
//! `perfbench` drives an `AnyKServer` on loopback with seeded traffic from
//! two client connections, checks every answer stream, and prints the
//! metrics `BENCHMARK.json` names. `--trace 1` replays the same requests
//! against each layer's public functions and reports per-layer times. See
//! `README.md` in this directory for the workloads and metric map.

pub mod bench;
pub mod check;
pub mod data;
pub mod drive;
pub mod layers;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
