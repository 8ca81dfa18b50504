//! The end-to-end simulator benchmark.
//!
//! Four workloads drive the program through its public entry points
//! (`Scenario::…build().run()` and `experiments::fig14::run`) and report
//! host-time metrics; every operation's output is checked against a
//! reference. A traced run mirrors the simulator's tick loop from outside
//! ([`driver`]) to split the time into layers, and asserts that the mirror's
//! `RunMetrics` are `==` to the program's. Nothing inside the program is
//! instrumented for this.

#![forbid(unsafe_code)]

pub mod check;
pub mod driver;
pub mod host;
pub mod run;
pub mod spec;
