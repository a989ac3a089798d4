//! `PortScheduler::run_op` against the loop it replaced: every cycle
//! stepped, none skipped (the parent of this change, commit 64b5a1d,
//! copied in below as `reference::run_op`).
//!
//! Skipping whole issue rotations is only allowed to save time: cycles
//! and the busy-unit histogram move by the integers the stepped loop
//! would have added one at a time, so `PortStats` must be `==`, not
//! close.

use drec_check::{cases, CaseRng};
use drec_uarch::{PortConfig, PortScheduler, PortStats, UopMix};

mod reference {
    use drec_uarch::{PortConfig, PortStats, UopMix};

    const MAX_SIM_UOPS: f64 = 16_384.0;

    pub fn run_op(config: &PortConfig, mix: &UopMix) -> PortStats {
        let total = mix.total();
        let units = config.total_units;
        if total <= 0.0 {
            return PortStats::empty(units);
        }
        let scale = (total / MAX_SIM_UOPS).max(1.0);
        // Integer sample preserving proportions.
        let n = |x: f64| ((x / scale).round() as u64).min(1 << 20);
        let counts = [
            n(mix.scalar_int),
            n(mix.scalar_fp),
            n(mix.vec_fp),
            n(mix.loads),
            n(mix.stores),
            n(mix.gathers),
            n(mix.branches),
        ];
        let sampled: u64 = counts.iter().sum();
        if sampled == 0 {
            return PortStats {
                cycles: total / config.issue_width as f64,
                busy_hist: vec![0.0; units + 1],
            };
        }

        let mut remaining = counts;
        let mut hist = vec![0.0f64; units + 1];
        let mut cycles = 0u64;
        // Gather occupancy carried across cycles (fractional).
        let mut gather_busy = 0.0f64;
        while remaining.iter().sum::<u64>() > 0 {
            cycles += 1;
            let mut issued = 0usize;
            let mut busy = 0usize;
            // Load ports partially consumed by in-flight gathers.
            let gather_ports_used = gather_busy.min(config.load_ports as f64);
            let mut load_avail = (config.load_ports as f64 - gather_ports_used).max(0.0) as usize;
            busy += gather_ports_used.ceil() as usize;
            gather_busy = (gather_busy - config.load_ports as f64).max(0.0);

            let mut alu_avail = config.alu_ports;
            let mut vec_avail = config.vec_ports;
            let mut store_avail = config.store_ports;
            let mut branch_avail = config.branch_ports;

            // Issue order rotates so no class starves.
            for k in 0..7 {
                let class = (cycles as usize + k) % 7;
                while issued < config.issue_width && remaining[class] > 0 {
                    let ok = match class {
                        0 => take(&mut alu_avail),
                        1 | 2 => {
                            // Scalar fp shares the vector ports.
                            take(&mut vec_avail)
                        }
                        3 => take(&mut load_avail),
                        4 => take(&mut store_avail),
                        5 => {
                            // Gather: needs a load port now, keeps it busy.
                            if take(&mut load_avail) {
                                gather_busy += config.gather_load_cycles - 1.0;
                                true
                            } else {
                                false
                            }
                        }
                        6 => take(&mut branch_avail),
                        _ => unreachable!(),
                    };
                    if ok {
                        remaining[class] -= 1;
                        issued += 1;
                        busy += 1;
                    } else {
                        break;
                    }
                }
            }
            hist[busy.min(units)] += 1.0;
        }

        let cycle_scale = scale;
        PortStats {
            cycles: cycles as f64 * cycle_scale,
            busy_hist: hist.into_iter().map(|h| h * cycle_scale).collect(),
        }
    }

    fn take(avail: &mut usize) -> bool {
        if *avail > 0 {
            *avail -= 1;
            true
        } else {
            false
        }
    }
}

/// `CpuModel::broadwell().ports`.
const BROADWELL: PortConfig = PortConfig {
    issue_width: 4,
    alu_ports: 4,
    vec_ports: 2,
    load_ports: 2,
    store_ports: 1,
    branch_ports: 1,
    gather_load_cycles: 4.0,
    total_units: 8,
};

/// `CpuModel::cascade_lake().ports`.
const CASCADE_LAKE: PortConfig = PortConfig {
    gather_load_cycles: 2.0,
    ..BROADWELL
};

/// No platform's port file: a gather occupancy that is not a whole number
/// of cycles, an odd issue width, and more busy units possible than the
/// histogram has bins.
const LOPSIDED: PortConfig = PortConfig {
    issue_width: 5,
    alu_ports: 3,
    vec_ports: 1,
    load_ports: 3,
    store_ports: 2,
    branch_ports: 2,
    gather_load_cycles: 2.5,
    total_units: 4,
};

const CONFIGS: [PortConfig; 3] = [BROADWELL, CASCADE_LAKE, LOPSIDED];

fn both(mix: &UopMix) {
    for config in CONFIGS {
        let skipped = PortScheduler::new(config).run_op(mix);
        let stepped: PortStats = reference::run_op(&config, mix);
        assert_eq!(skipped, stepped, "{mix:?} on {config:?}");
    }
}

/// Seven counts, each present with probability `keep` and then
/// log-uniform up to `2^max_bits`, so classes run dry at very different
/// times.
fn draw_mix(rng: &mut CaseRng, keep: f64, max_bits: u32) -> UopMix {
    let mut count = || {
        if rng.unit_f64() < keep {
            rng.f64_in(0.0..1.0) * (1u64 << rng.u32_in(0..max_bits)) as f64
        } else {
            0.0
        }
    };
    UopMix {
        scalar_int: count(),
        scalar_fp: count(),
        vec_fp: count(),
        loads: count(),
        stores: count(),
        gathers: count(),
        branches: count(),
    }
}

#[test]
fn small_mixes_below_the_sampling_cap() {
    // What DIN's hundreds of tiny operators look like: a few dozen to a
    // few thousand μops, several classes absent.
    cases(400, |rng| both(&draw_mix(rng, 0.6, 11)));
}

#[test]
fn mixes_far_above_the_sampling_cap() {
    cases(100, |rng| both(&draw_mix(rng, 0.8, 34)));
}

#[test]
fn gather_only_and_gather_heavy_mixes() {
    cases(60, |rng| {
        let gathers = rng.f64_in(1.0..40_000.0);
        both(&UopMix {
            gathers,
            ..UopMix::default()
        });
        // Gathers own the load ports; everything else trickles past them.
        let mut heavy = draw_mix(rng, 0.7, 10);
        heavy.gathers = gathers;
        both(&heavy);
    });
}

#[test]
fn empty_vanishing_and_single_class_mixes() {
    both(&UopMix::default());
    // Rounds to zero sampled μops in every class.
    both(&UopMix {
        scalar_int: 0.3,
        loads: 0.4,
        ..UopMix::default()
    });
    for class in 0..7 {
        for count in [1.0, 6.0, 7.0, 8.0, 1_000.0, 16_384.0, 16_385.0, 3e9] {
            let mut fields = [0.0; 7];
            fields[class] = count;
            let [scalar_int, scalar_fp, vec_fp, loads, stores, gathers, branches] = fields;
            both(&UopMix {
                scalar_int,
                scalar_fp,
                vec_fp,
                loads,
                stores,
                gathers,
                branches,
            });
        }
    }
}
