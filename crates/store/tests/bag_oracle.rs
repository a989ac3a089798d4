//! Differential oracle for the bag read path.
//!
//! `PinnedTable::sum_rows` / `read_rows` promise that a bag is nothing
//! but bookkeeping: the rows are visited in order and every cache and
//! tier operation happens as it would for that many one-row calls, only
//! the counters and the tier lock are handled once per bag. So the same seeded stream of bags, driven through the bag
//! calls on one store and through one-row calls on an identically built
//! second store, must leave bitwise-equal outputs **and** field-for-field
//! equal `StoreStats` — same hits, misses, evictions, promotions, cold
//! reads and prefetch counters.

use std::sync::Arc;
use std::time::Duration;

use drec_check::{cases, CaseRng};
use drec_faultsim::{FaultHook, FaultPlan};
use drec_store::{
    ColdReadModel, EmbeddingStore, Pacing, PinnedTable, RowEncoding, StoreConfig, TierConfig,
};

const ENCODINGS: [RowEncoding; 3] = [RowEncoding::F32, RowEncoding::F16, RowEncoding::Int8];
const TABLES: usize = 2;
const ROWS: usize = 48;

/// How the tier is configured and exercised in one leg of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TierLeg {
    /// No tier at all.
    Off,
    /// Tiered, promoting after this many demand touches.
    AdmitAfter(u32),
    /// Tiered (`admit_after` 2) with prefetch fills and row updates
    /// interleaved between the bags.
    Interleaved,
}

fn config(encoding: RowEncoding, cached: bool, tier: TierLeg) -> StoreConfig {
    StoreConfig {
        encoding,
        shards_per_table: 3,
        // Far smaller than the 96 rows read, so keys are evicted all the
        // time.
        cache_capacity_rows: if cached { 12 } else { 0 },
        tier: match tier {
            TierLeg::Off => None,
            TierLeg::AdmitAfter(n) => Some(tier_config(n)),
            TierLeg::Interleaved => Some(tier_config(2)),
        },
    }
}

fn tier_config(admit_after: u32) -> TierConfig {
    TierConfig {
        admit_after,
        cold_read: ColdReadModel {
            pacing: Pacing::Charge,
            seed: 5,
            ..ColdReadModel::default()
        },
        ..TierConfig::new(10)
    }
}

/// Two stores built the same way, each with its tables pinned.
fn twin_stores(
    cfg: &StoreConfig,
    dim: usize,
    faults: Option<&FaultPlan>,
    rng: &mut CaseRng,
) -> [(Arc<EmbeddingStore>, Vec<PinnedTable>); 2] {
    let data: Vec<Vec<f32>> = (0..TABLES)
        .map(|_| rng.vec_of(ROWS * dim..ROWS * dim + 1, |r| r.f32_in(-1.5..1.5)))
        .collect();
    [(); 2].map(|()| {
        let hook = faults.map_or_else(FaultHook::disabled, FaultHook::from_plan);
        let store = Arc::new(EmbeddingStore::with_faults(cfg.clone(), hook));
        let pins = data
            .iter()
            .enumerate()
            .map(|(t, rows)| store.pin(store.register(9, t as u32, ROWS, dim, rows).unwrap()))
            .collect();
        (store, pins)
    })
}

/// A bag of 0..=14 rows; one time in three it revisits a row it read
/// (and so cached, or promoted) a moment earlier in the same bag.
fn bag(rng: &mut CaseRng) -> Vec<u32> {
    let len = rng.usize_in(0..15);
    let mut rows: Vec<u32> = (0..len).map(|_| rng.u32_in(0..ROWS as u32)).collect();
    if len >= 2 && rng.usize_in(0..3) == 0 {
        let (from, to) = (rng.usize_in(0..len - 1), len - 1);
        rows[to] = rows[from];
        if from + 1 < to {
            rows[from + 1] = rows[from];
        }
    }
    rows
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Drives one seeded stream through both stores — bag calls on the
/// first, one-row calls on the second — and checks outputs after every
/// step and the counters at the end.
fn run_stream(cfg: &StoreConfig, leg: TierLeg, faults: Option<&FaultPlan>, rng: &mut CaseRng) {
    let dim = rng.usize_in(1..21);
    let [(bag_store, bag_pins), (row_store, row_pins)] = twin_stores(cfg, dim, faults, rng);
    for step in 0..rng.usize_in(20..60) {
        let t = rng.usize_in(0..TABLES);
        let (bag_pin, row_pin) = (&bag_pins[t], &row_pins[t]);
        if faults.is_some() && step % 16 == 8 {
            // Cache-only degraded mode comes and goes mid-stream.
            let degraded = !bag_store.cache_only();
            bag_store.set_cache_only(degraded);
            row_store.set_cache_only(degraded);
        }
        if leg == TierLeg::Interleaved {
            match rng.usize_in(0..4) {
                0 => {
                    // Look-ahead: some of an upcoming bag's rows are
                    // filled before the next demand read, the rest
                    // never.
                    let wanted = bag(rng);
                    let now = &wanted[..rng.usize_in(0..wanted.len() + 1)];
                    bag_pin.prefetch_rows(now);
                    now.iter().for_each(|&row| row_pin.prefetch_row(row));
                }
                1 => {
                    let row = rng.u32_in(0..ROWS as u32);
                    let values = rng.vec_of(dim..dim + 1, |r| r.f32_in(-2.0..2.0));
                    bag_pin.update_row(row, &values).unwrap();
                    row_pin.update_row(row, &values).unwrap();
                }
                _ => {}
            }
        }
        let rows = bag(rng);
        if rng.usize_in(0..4) == 0 {
            let mut got = vec![f32::NAN; rows.len() * dim];
            let mut want = got.clone();
            bag_pin.read_rows(rows.iter().copied(), &mut got);
            for (&row, cell) in rows.iter().zip(want.chunks_mut(dim)) {
                row_pin.read_row(row, cell);
            }
            assert_eq!(bits(&got), bits(&want), "step {step}: copy of {rows:?}");
        } else {
            let mut got = rng.vec_of(dim..dim + 1, |r| r.f32_in(-1.0..1.0));
            let mut want = got.clone();
            bag_pin.sum_rows(rows.iter().copied(), &mut got);
            rows.iter().for_each(|&row| row_pin.sum_row(row, &mut want));
            assert_eq!(bits(&got), bits(&want), "step {step}: sum of {rows:?}");
        }
    }
    assert_eq!(
        bag_store.stats(),
        row_store.stats(),
        "counters diverged between bag calls and one-row calls"
    );
}

#[test]
fn bags_match_one_row_calls_in_values_and_counters() {
    let legs = [
        TierLeg::Off,
        TierLeg::AdmitAfter(1),
        TierLeg::AdmitAfter(2),
        TierLeg::Interleaved,
    ];
    for encoding in ENCODINGS {
        for cached in [false, true] {
            for leg in legs {
                let cfg = config(encoding, cached, leg);
                cases(24, |rng| run_stream(&cfg, leg, None, rng));
            }
        }
    }
}

#[test]
fn cache_only_bags_with_injected_read_faults_match_one_row_calls() {
    // Every third cold read is delayed (the bag gives up its tier lock
    // for the sleep) while cache-only mode toggles: skips, zero-filled
    // copies and the fault counters must line up too.
    let plan = FaultPlan {
        delay_every_n_reads: Some(3),
        read_delay: Duration::from_micros(1),
        ..FaultPlan::quiet(11)
    };
    for encoding in ENCODINGS {
        for leg in [TierLeg::Off, TierLeg::AdmitAfter(2)] {
            let cfg = config(encoding, true, leg);
            cases(6, |rng| run_stream(&cfg, leg, Some(&plan), rng));
        }
    }
}

#[test]
fn a_poisoned_read_mid_bag_still_counts_the_rows_it_visited() {
    // The bag tallies its counters locally and adds them when it ends;
    // unwinding out of an injected poisoned read is one way to end.
    let plan = FaultPlan {
        poison_every_n_reads: Some(3),
        ..FaultPlan::quiet(2)
    };
    let store = Arc::new(EmbeddingStore::with_faults(
        config(RowEncoding::Int8, false, TierLeg::AdmitAfter(1)),
        FaultHook::from_plan(&plan),
    ));
    let data = vec![0.5f32; ROWS * 4];
    let pin = store.pin(store.register(1, 0, ROWS, 4, &data).unwrap());
    let mut acc = vec![0.0f32; 4];
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pin.sum_rows([1, 2, 3, 4], &mut acc);
    }));
    assert!(unwound.is_err(), "one cold read in any three is poisoned");
    // Wherever in the bag the schedule's phase put the poisoned read:
    // every row before it was read, it was only attempted.
    let stats = store.stats();
    let read = stats.lookups - 1;
    assert!(stats.lookups >= 1 && read < 3, "{stats:?}");
    assert_eq!(stats.decode_vector + stats.decode_scalar, read);
    assert_eq!(stats.tier_cold_demand_reads, read);
    // The unwind released the tier lock, so asking it something does
    // not hang; row 1 was promoted if it was read at all.
    assert_eq!(pin.is_resident(1), read >= 1);
}
