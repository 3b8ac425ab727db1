//! # desim — deterministic discrete-event simulation kernel
//!
//! The shared substrate underneath both architecture models in this
//! workspace ([`emu-core`](../emu_core/index.html) and
//! [`xeon-sim`](../xeon_sim/index.html)):
//!
//! * [`time::Time`] — integer picosecond simulated time and [`time::Clock`]
//!   frequency conversion;
//! * [`queue::EventQueue`] — the time-ordered event heap with deterministic
//!   FIFO tie-breaking;
//! * [`server`] — analytic FIFO resources ([`server::FifoServer`],
//!   [`server::MultiServer`], bandwidth [`server::Link`]s) that resolve
//!   queueing without extra events;
//! * [`stats`] — counters, online summaries, log₂ latency histograms, and
//!   bandwidth reductions;
//! * [`rng`] — seeded, reproducible randomness.
//!
//! ## Design note
//!
//! Engines built on this kernel drive *agents* (threadlets, CPU threads)
//! through an [`queue::EventQueue`]; each pop re-activates one agent, which
//! pushes its next activation after routing one operation through a chain
//! of analytic servers. Because events pop in nondecreasing time order,
//! the servers see arrivals in order and FIFO semantics hold without the
//! servers scheduling events of their own — a classic "activity scanning"
//! style DES that is compact and fast.

#![warn(missing_docs)]

pub mod arena;
pub mod pdes;
pub mod queue;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;
pub mod timeline;

pub use arena::{Arena, Idx};
pub use pdes::{EdgeRings, EpochGate, GateView, SpscRing};
pub use queue::EventQueue;
pub use server::{FifoServer, Grant, Link, MultiServer};
pub use stats::{Bandwidth, Counter, LogHistogram, Summary};
pub use time::{Clock, Time};
pub use timeline::{Gauge, Timeline, ZeroBucket};
