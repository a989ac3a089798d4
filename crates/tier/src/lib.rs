//! `drec-tier` — a tiered DRAM/SSD residency model layered under
//! `drec-store`.
//!
//! Production recommendation models hold tens of GB of embedding tables —
//! far past what one node's DRAM fits — so real deployments split rows
//! between a DRAM hot tier and an SSD cold tier. This crate simulates
//! that split without moving any bytes: the encoded shards in
//! `drec-store` stand in for the SSD, and a budget-bounded CLOCK set of
//! row keys models what is currently DRAM-resident. A lookup that misses
//! the resident set is a *cold read*: it is charged a configurable,
//! seeded, queue-depth-aware latency (reusing `drec-faultsim`'s
//! deterministic delay seeding) and the row is promoted, possibly
//! evicting another under CLOCK's second-chance sweep.
//!
//! Three load-bearing properties:
//!
//! * **Values never change.** Residency only decides what latency a read
//!   is charged and which counters move. Data always decodes from the
//!   same encoded shards, so store-backed model outputs are bit-identical
//!   with tiering on or off, with or without prefetch, at any thread
//!   count.
//! * **Determinism.** Promotion/eviction is pure CLOCK over the access
//!   sequence, and the cold-read latency is a pure function of the model
//!   seed and the global read index — no wall clock, no OS randomness.
//! * **Separate accounting.** Cold-tier reads and prefetch fills each
//!   move their own counters; they never touch the store's demand
//!   `decodes` count, so decodes stay kernel work. A promotion or a fill
//!   is counted only when its insert made the row resident: under
//!   [`Pacing::Sleep`] another access may have done so while it slept.
//!
//! The pieces:
//!
//! * [`ColdReadModel`] / [`Pacing`] — the latency model for one simulated
//!   SSD read (base + seeded jitter + per-inflight queueing penalty),
//!   either really slept ([`Pacing::Sleep`], for chaos/determinism tests
//!   on the faultsim delay seam) or virtually charged
//!   ([`Pacing::Charge`], for benches that need reproducible latency
//!   accounting free of OS sleep granularity).
//! * `ResidencyClock` — the deterministic CLOCK resident set, and the
//!   per-row records a key finds its slot through. Row keys are
//!   `(table << 32) | row` over registered tables, so the tier keeps one
//!   direct-indexed eight-byte record per row — CLOCK slot, admission
//!   epoch and demand-touch count — and one eight-byte slot (key and
//!   CLOCK flags) per row of the DRAM budget, and hashes nothing. A
//!   budget of 2^24 rows or more is rejected at construction.
//! * [`TierEngine`] — the store-facing engine: demand access, prefetch
//!   fills, hit/wasted tracking, [`TierStats`]; all of it under one lock
//!   that a [`TierSession`] holds across the residency phase of a whole
//!   bag of accesses (the bag's rows are decoded after the session
//!   ends), and [`TierSession::record`] hands it a row's record to
//!   prefetch. A fill is one call, [`TierSession::prefetch_fill_if`]:
//!   the caller captures its table's write stamp, the fill pays the
//!   cold read, and the stamp is verified under the tier lock before
//!   the row is parked.

#![warn(missing_docs)]

mod clock;
mod engine;
mod latency;

pub use engine::{CombineConfig, TierAccess, TierConfig, TierEngine, TierSession, TierStats};
pub use latency::{ColdReadModel, Pacing};
