//! Parity with the hash-map tier this crate had before its state became
//! one direct-indexed record per row (commit 9d5c3fe).
//!
//! CLOCK order, the `admit_after` comparison against the victim's touch
//! count, the wholesale admission reset and the cold-read index are a
//! function of the access sequence alone, so on one fixed stream every
//! `TierStats` field, every access outcome and the resident set must
//! equal what that commit produced. `crates/store/tests/parent_parity.rs`
//! pins the same through the store, but its stream never fills the
//! admission sketch and barely wraps the hand; this one runs 60 000
//! operations over four tables and 4 096 keys, at budgets small enough
//! that the sketch resets every 1 024 tracked rows.
//!
//! `PARENT` was recorded by copying this file (and the `drec-check`
//! dev-dependency line of `Cargo.toml`) into a checkout of 9d5c3fe and
//! running `cargo test -p drec-tier --test parent_parity` there: the
//! one `assert_eq!` below fails with all nine legs as its `left:`, and
//! that text, reformatted, is the array.
//!
//! Three things in it are not 9d5c3fe's. That tier had a prefetch-intent
//! protocol — an intent call that set a pending bit in the row's record,
//! and a counter of demand reads that overtook one — which is gone: op 7
//! of the stream, once the intent call, now only draws its key.
//! Residency never read the pending bit, so every field that follows
//! from residency is asserted as recorded there. What did read it is
//! re-recorded from the change that removed it: `prefetch_issued` (one
//! per fill started on a non-resident row, where an intent used to count
//! instead), `invalidations` (a call that dropped only a pending intent
//! no longer counts) and the `outcomes` hash (op 7 returns nothing, and
//! such an `invalidate` returns `false`).

use std::collections::HashSet;
use std::time::Duration;

use drec_check::CaseRng;
use drec_tier::{ColdReadModel, Pacing, TierAccess, TierConfig, TierEngine, TierStats};

const TABLES: u64 = 4;
const ROWS_PER_TABLE: u64 = 1024;
const OPS: usize = 60_000;
const BUDGETS: [usize; 3] = [1, 7, 128];
const ADMIT_AFTER: [u32; 3] = [1, 2, 3];

/// What one leg leaves behind.
#[derive(Debug, PartialEq, Eq)]
struct Leg {
    stats: TierStats,
    /// FNV-1a over the resident keys, sorted.
    resident: u64,
    /// FNV-1a over every value an operation returned, in order.
    outcomes: u64,
}

fn fnv(hash: &mut u64, value: u64) {
    *hash = (*hash ^ value).wrapping_mul(0x0000_0100_0000_01B3);
}

/// Half the draws come from a 64-key head (rows the admission filter
/// should keep resident), half sweep the whole key space (the tail that
/// fills the sketch and turns the hand).
fn draw_key(rng: &mut CaseRng) -> u64 {
    let index = if rng.next_u64().is_multiple_of(2) {
        rng.u64_in(0..64) * 61 % (TABLES * ROWS_PER_TABLE)
    } else {
        rng.u64_in(0..TABLES * ROWS_PER_TABLE)
    };
    ((index / ROWS_PER_TABLE) << 32) | (index % ROWS_PER_TABLE)
}

fn drive(budget: usize, admit_after: u32) -> Leg {
    let tier = TierEngine::new(&TierConfig {
        cold_read: ColdReadModel {
            base: Duration::from_micros(10),
            jitter: Duration::from_micros(2),
            per_inflight: Duration::from_nanos(500),
            seed: 17,
            pacing: Pacing::Charge,
        },
        admit_after,
        ..TierConfig::new(budget)
    });
    let mut rng = CaseRng::new(0x5EED_0017);
    let mut outcomes = 0xCBF2_9CE4_8422_2325u64;
    // The stream's own shape, checked below: distinct keys demanded, and
    // how often the sketch must have reset (it tracks every demanded
    // key and clears at `max(8 × budget, 1024)` of them).
    let mut distinct = HashSet::new();
    let mut tracked = HashSet::new();
    let mut resets = 0;
    let mut op = 0;
    while op < OPS {
        match rng.next_u64() % 8 {
            // One session over a run of accesses, as a bag or a prefetch
            // list holds it.
            0..=5 => {
                let mut session = tier.session();
                for _ in 0..rng.usize_in(1..17) {
                    let key = draw_key(&mut rng);
                    match rng.next_u64() % 10 {
                        0..=6 => {
                            distinct.insert(key);
                            tracked.insert(key);
                            if tracked.len() >= (8 * budget).max(1024) {
                                tracked.clear();
                                resets += 1;
                            }
                            match session.demand_access(key) {
                                TierAccess::DramHit => fnv(&mut outcomes, 1),
                                TierAccess::ColdMiss { wait } => {
                                    fnv(&mut outcomes, 2 + wait.as_nanos() as u64)
                                }
                            }
                        }
                        // Was the intent call: the draw above stays so the
                        // rest of the stream is the one 9d5c3fe ran.
                        7 => {}
                        _ => {
                            let fresh = !rng.next_u64().is_multiple_of(4);
                            session.prefetch_fill_if(key, || fresh);
                        }
                    }
                    op += 1;
                }
            }
            6 => {
                fnv(
                    &mut outcomes,
                    u64::from(tier.invalidate(draw_key(&mut rng))),
                );
                op += 1;
            }
            _ => {
                fnv(
                    &mut outcomes,
                    u64::from(tier.is_resident(draw_key(&mut rng))),
                );
                op += 1;
            }
        }
    }
    assert!(distinct.len() >= 2 * 1024, "{} keys", distinct.len());
    assert!(resets >= 2, "the sketch reset {resets} times");

    let stats = tier.stats();
    assert!(
        stats.evictions >= 20 * budget as u64,
        "the hand barely wrapped: {} evictions at budget {budget}",
        stats.evictions
    );
    let mut keys = Vec::new();
    tier.count_resident(|key| {
        keys.push(key);
        true
    });
    keys.sort_unstable();
    assert_eq!(keys.len() as u64, stats.dram_resident_rows);
    assert!(keys.iter().all(|&key| tier.is_resident(key)));
    let mut resident = 0xCBF2_9CE4_8422_2325u64;
    keys.iter().for_each(|&key| fnv(&mut resident, key));
    Leg {
        stats,
        resident,
        outcomes,
    }
}

/// What 9d5c3fe produced, budget-major (`BUDGETS` × `ADMIT_AFTER`),
/// apart from the three re-recorded values the file's header names.
const PARENT: [Leg; 9] = [
    Leg {
        stats: TierStats {
            dram_budget_rows: 1,
            dram_resident_rows: 1,
            dram_hits: 158,
            cold_demand_reads: 40_034,
            promotions: 48_842,
            evictions: 48_837,
            demand_wait_nanos: 440_539_339,
            prefetch_wait_nanos: 128_636_455,
            prefetch_issued: 11_695,
            prefetch_fills: 8_808,
            prefetch_hits: 24,
            prefetch_wasted: 8_784,
            prefetch_aborted_stale: 2_887,
            invalidations: 4,
        },
        resident: 0xAF62_F7FF_8600_65BA,
        outcomes: 0x657B_9B98_6BD3_63CF,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 1,
            dram_resident_rows: 1,
            dram_hits: 251,
            cold_demand_reads: 39_941,
            promotions: 16_818,
            evictions: 16_809,
            demand_wait_nanos: 439_477_085,
            prefetch_wait_nanos: 128_215_282,
            prefetch_issued: 11_652,
            prefetch_fills: 8_771,
            prefetch_hits: 76,
            prefetch_wasted: 8_693,
            prefetch_aborted_stale: 2_881,
            invalidations: 8,
        },
        resident: 0xAF62_F7FF_8600_65BA,
        outcomes: 0x6A03_C105_C3B3_D3D5,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 1,
            dram_resident_rows: 1,
            dram_hits: 245,
            cold_demand_reads: 39_947,
            promotions: 16_173,
            evictions: 16_164,
            demand_wait_nanos: 439_476_956,
            prefetch_wait_nanos: 128_293_630,
            prefetch_issued: 11_653,
            prefetch_fills: 8_772,
            prefetch_hits: 77,
            prefetch_wasted: 8_693,
            prefetch_aborted_stale: 2_881,
            invalidations: 8,
        },
        resident: 0xAF62_F7FF_8600_65BA,
        outcomes: 0x309B_BD1C_6550_0478,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 7,
            dram_resident_rows: 7,
            dram_hits: 1_139,
            cold_demand_reads: 39_053,
            promotions: 47_584,
            evictions: 47_545,
            demand_wait_nanos: 429_619_572,
            prefetch_wait_nanos: 124_811_019,
            prefetch_issued: 11_336,
            prefetch_fills: 8_531,
            prefetch_hits: 194,
            prefetch_wasted: 8_332,
            prefetch_aborted_stale: 2_805,
            invalidations: 32,
        },
        resident: 0x3A18_28C0_5B5E_94F4,
        outcomes: 0x6376_0A49_7A3B_2A3F,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 7,
            dram_resident_rows: 7,
            dram_hits: 1_621,
            cold_demand_reads: 38_571,
            promotions: 16_161,
            evictions: 16_117,
            demand_wait_nanos: 424_340_162,
            prefetch_wait_nanos: 123_506_511,
            prefetch_issued: 11_221,
            prefetch_fills: 8_453,
            prefetch_hits: 502,
            prefetch_wasted: 7_937,
            prefetch_aborted_stale: 2_768,
            invalidations: 37,
        },
        resident: 0xEBA0_F035_7AB0_A550,
        outcomes: 0xC454_3AA6_F037_A2E3,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 7,
            dram_resident_rows: 7,
            dram_hits: 1_622,
            cold_demand_reads: 38_570,
            promotions: 15_532,
            evictions: 15_482,
            demand_wait_nanos: 424_346_957,
            prefetch_wait_nanos: 123_305_896,
            prefetch_issued: 11_204,
            prefetch_fills: 8_438,
            prefetch_hits: 516,
            prefetch_wasted: 7_906,
            prefetch_aborted_stale: 2_766,
            invalidations: 43,
        },
        resident: 0xAC1D_2E48_5795_2990,
        outcomes: 0x31A7_AC37_59F9_25B9,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 128,
            dram_resident_rows: 128,
            dram_hits: 13_725,
            cold_demand_reads: 26_467,
            promotions: 32_297,
            evictions: 31_783,
            demand_wait_nanos: 291_217_427,
            prefetch_wait_nanos: 84_827_134,
            prefetch_issued: 7_710,
            prefetch_fills: 5_830,
            prefetch_hits: 1_122,
            prefetch_wasted: 4_647,
            prefetch_aborted_stale: 1_880,
            invalidations: 386,
        },
        resident: 0x92D2_7D4B_2A0B_1BBD,
        outcomes: 0xA070_8778_13B3_78A9,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 128,
            dram_resident_rows: 128,
            dram_hits: 18_888,
            cold_demand_reads: 21_304,
            promotions: 7_322,
            evictions: 6_664,
            demand_wait_nanos: 234_348_861,
            prefetch_wait_nanos: 67_162_535,
            prefetch_issued: 6_097,
            prefetch_fills: 4_631,
            prefetch_hits: 600,
            prefetch_wasted: 3_958,
            prefetch_aborted_stale: 1_466,
            invalidations: 530,
        },
        resident: 0x62BF_D3DA_7381_7949,
        outcomes: 0x4DF7_EED3_6873_6CDF,
    },
    Leg {
        stats: TierStats {
            dram_budget_rows: 128,
            dram_resident_rows: 128,
            dram_hits: 19_238,
            cold_demand_reads: 20_954,
            promotions: 5_711,
            evictions: 5_049,
            demand_wait_nanos: 230_581_994,
            prefetch_wait_nanos: 66_484_491,
            prefetch_issued: 6_043,
            prefetch_fills: 4_593,
            prefetch_hits: 622,
            prefetch_wasted: 3_888,
            prefetch_aborted_stale: 1_450,
            invalidations: 534,
        },
        resident: 0x1499_B02A_1ECA_1010,
        outcomes: 0xB2FF_8506_4DA2_BA66,
    },
];

#[test]
fn every_counter_outcome_and_resident_key_matches_the_hash_map_tier() {
    let legs: Vec<Leg> = BUDGETS
        .iter()
        .flat_map(|&budget| ADMIT_AFTER.map(|admit_after| drive(budget, admit_after)))
        .collect();
    assert_eq!(legs, PARENT);
}
