//! # emu-bench — the experiment harness
//!
//! One runner per figure of "An Initial Characterization of the Emu
//! Chick" ([`figures`]), the paper's headline text numbers
//! ([`figures::headline`]), and ablation studies over the model's design
//! choices ([`ablations`]). `simctl fig <name>` prints a figure's
//! aligned table and writes `results/<name>.csv`.
//!
//! Set `EMU_QUICK=1` to shrink workloads ~8x for a fast smoke pass.

#![warn(missing_docs)]

pub mod ablations;
pub mod cache;
pub mod cachecmd;
pub mod cli;
pub mod degradation;
pub mod extensions;
pub mod figcmd;
pub mod figures;
pub mod harness;
pub mod inspect;
pub mod output;
pub mod overhead;
pub mod runcfg;
pub mod scncmd;
pub mod sweep;
pub mod telemetry;
pub mod validate;
