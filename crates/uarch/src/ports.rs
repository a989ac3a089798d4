/// Per-op μop counts by execution-port class.
///
/// Produced by the platform model's instruction-synthesis pass (ISA lane
/// width already applied), consumed by the [`PortScheduler`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UopMix {
    /// Scalar integer/address ALU μops.
    pub scalar_int: f64,
    /// Scalar floating-point μops.
    pub scalar_fp: f64,
    /// SIMD floating-point μops (FMA/add/mul, any width).
    pub vec_fp: f64,
    /// Regular load μops.
    pub loads: f64,
    /// Store μops.
    pub stores: f64,
    /// Microcoded gather μop groups (occupy a load port for several
    /// cycles each).
    pub gathers: f64,
    /// Branch μops.
    pub branches: f64,
}

impl UopMix {
    /// Total μops.
    pub fn total(&self) -> f64 {
        self.scalar_int
            + self.scalar_fp
            + self.vec_fp
            + self.loads
            + self.stores
            + self.gathers
            + self.branches
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &UopMix) {
        self.scalar_int += other.scalar_int;
        self.scalar_fp += other.scalar_fp;
        self.vec_fp += other.vec_fp;
        self.loads += other.loads;
        self.stores += other.stores;
        self.gathers += other.gathers;
        self.branches += other.branches;
    }
}

/// Execution-port resources of a core (Table II platforms both have eight
/// functional units: four ALU-capable ports, two load, one store-data, one
/// store-AGU — the paper's Fig 10 counts "3+ units out of 8").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortConfig {
    /// Issue (allocation) width in μops per cycle.
    pub issue_width: usize,
    /// Ports that can execute scalar ALU μops.
    pub alu_ports: usize,
    /// Ports that can execute SIMD fp μops.
    pub vec_ports: usize,
    /// Load ports.
    pub load_ports: usize,
    /// Store ports.
    pub store_ports: usize,
    /// Branch-capable ports.
    pub branch_ports: usize,
    /// Load-port busy cycles per gather μop group (microcoded gathers are
    /// slower on Broadwell than on Cascade Lake).
    pub gather_load_cycles: f64,
    /// Total functional units for the busy histogram.
    pub total_units: usize,
}

/// Results of scheduling one op's μops.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PortStats {
    /// Cycles needed to issue/execute the μops (throughput bound).
    pub cycles: f64,
    /// `busy_hist[k]` = cycles during which exactly `k` units were busy,
    /// scaled to the full op.
    pub busy_hist: Vec<f64>,
}

impl PortStats {
    /// Accumulates another op's stats.
    pub fn add(&mut self, other: &PortStats) {
        self.cycles += other.cycles;
        if self.busy_hist.len() < other.busy_hist.len() {
            self.busy_hist.resize(other.busy_hist.len(), 0.0);
        }
        for (a, b) in self.busy_hist.iter_mut().zip(&other.busy_hist) {
            *a += b;
        }
    }

    /// An empty accumulator for `units` functional units.
    pub fn empty(units: usize) -> Self {
        PortStats {
            cycles: 0.0,
            busy_hist: vec![0.0; units + 1],
        }
    }
}

/// μops sampled per op before extrapolating.
const MAX_SIM_UOPS: f64 = 16_384.0;

/// μop classes in issue-rotation order; a rotation is this many cycles.
const CLASSES: usize = 7;

/// Greedy cycle-by-cycle execution-port scheduler.
///
/// The op's μop mix is interleaved into a representative sequence and
/// issued cycle by cycle: each cycle takes up to `issue_width` μops subject
/// to per-class port availability; gather groups keep a load port busy for
/// `gather_load_cycles`. The per-cycle busy-unit count feeds the Fig 10
/// functional-unit-usage histogram; the cycle total is the op's core
/// throughput bound.
///
/// A cycle's outcome depends on three things only: where the issue order's
/// rotation stands, the gather occupancy carried in, and which classes
/// still have μops. So the cycles run in blocks of one rotation, and a
/// block that leaves the occupancy bit-equal to what it found, with no
/// class run dry, is the block that follows it too: as many copies of it
/// as keep one μop in every class it drew from are added in one step, in
/// integers, and the stepping resumes for the tail.
#[derive(Debug, Clone)]
pub struct PortScheduler {
    config: PortConfig,
}

/// What carries from one simulated cycle to the next.
struct IssueState {
    remaining: [u64; CLASSES],
    cycles: u64,
    /// Cycles of the current block seen with each busy-unit count.
    block_hist: Vec<u64>,
    /// Gather occupancy carried across cycles (fractional).
    gather_busy: f64,
}

impl PortScheduler {
    /// Creates a scheduler for the given port file.
    pub fn new(config: PortConfig) -> Self {
        PortScheduler { config }
    }

    /// Schedules one op's μops.
    pub fn run_op(&self, mix: &UopMix) -> PortStats {
        let total = mix.total();
        let units = self.config.total_units;
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
                cycles: total / self.config.issue_width as f64,
                busy_hist: vec![0.0; units + 1],
            };
        }

        let mut state = IssueState {
            remaining: counts,
            cycles: 0,
            block_hist: vec![0; units + 1],
            gather_busy: 0.0,
        };
        let mut hist = vec![0u64; units + 1];
        while state.remaining.iter().any(|&r| r > 0) {
            // One rotation of the issue order, cycle by cycle.
            let before = state.remaining;
            let gather_before = state.gather_busy.to_bits();
            state.block_hist.fill(0);
            for _ in 0..CLASSES {
                if state.remaining.iter().all(|&r| r == 0) {
                    break;
                }
                self.step(&mut state);
            }
            let drawn = || before.iter().zip(&state.remaining);
            let periodic = state.gather_busy.to_bits() == gather_before
                && drawn().all(|(&was, &is)| is > 0 || was == 0);
            // Copies of this block that leave every class it drew from
            // at least one μop, so no `remaining > 0` test inside them
            // can come out differently.
            let repeats = if periodic {
                drawn()
                    .filter(|(was, is)| was > is)
                    .map(|(was, is)| (is - 1) / (was - is))
                    .min()
                    .unwrap_or(0)
            } else {
                0
            };
            for (left, was) in state.remaining.iter_mut().zip(before) {
                *left -= repeats * (was - *left);
            }
            state.cycles += repeats * CLASSES as u64;
            for (total, block) in hist.iter_mut().zip(&state.block_hist) {
                *total += (1 + repeats) * block;
            }
        }

        PortStats {
            cycles: state.cycles as f64 * scale,
            busy_hist: hist.iter().map(|&h| h as f64 * scale).collect(),
        }
    }

    /// Issues one cycle's μops.
    fn step(&self, state: &mut IssueState) {
        let IssueState {
            remaining,
            cycles,
            block_hist,
            gather_busy,
        } = state;
        *cycles += 1;
        let mut issued = 0usize;
        let mut busy = 0usize;
        // Load ports partially consumed by in-flight gathers.
        let gather_ports_used = gather_busy.min(self.config.load_ports as f64);
        let mut load_avail = (self.config.load_ports as f64 - gather_ports_used).max(0.0) as usize;
        busy += gather_ports_used.ceil() as usize;
        *gather_busy = (*gather_busy - self.config.load_ports as f64).max(0.0);

        let mut alu_avail = self.config.alu_ports;
        let mut vec_avail = self.config.vec_ports;
        let mut store_avail = self.config.store_ports;
        let mut branch_avail = self.config.branch_ports;

        // Issue order rotates so no class starves.
        for k in 0..CLASSES {
            let class = (*cycles as usize + k) % CLASSES;
            while issued < self.config.issue_width && remaining[class] > 0 {
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
                            *gather_busy += self.config.gather_load_cycles - 1.0;
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
        let most = block_hist.len() - 1;
        block_hist[busy.min(most)] += 1;
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

#[cfg(test)]
mod tests {
    use super::*;

    impl PortStats {
        /// Fraction of cycles with at least `k` busy units.
        fn frac_at_least(&self, k: usize) -> f64 {
            let total: f64 = self.busy_hist.iter().sum();
            if total <= 0.0 {
                return 0.0;
            }
            self.busy_hist.iter().skip(k).sum::<f64>() / total
        }
    }

    fn broadwell_ports() -> PortConfig {
        PortConfig {
            issue_width: 4,
            alu_ports: 4,
            vec_ports: 2,
            load_ports: 2,
            store_ports: 1,
            branch_ports: 1,
            gather_load_cycles: 4.0,
            total_units: 8,
        }
    }

    #[test]
    fn fp_heavy_mix_is_vec_port_bound() {
        let sched = PortScheduler::new(broadwell_ports());
        let stats = sched.run_op(&UopMix {
            vec_fp: 10_000.0,
            loads: 2_000.0,
            ..UopMix::default()
        });
        // 10k vec μops over 2 ports → ≥5k cycles.
        assert!(stats.cycles >= 5_000.0 * 0.95, "{}", stats.cycles);
    }

    #[test]
    fn balanced_mix_is_issue_width_bound() {
        let sched = PortScheduler::new(broadwell_ports());
        let mix = UopMix {
            scalar_int: 4_000.0,
            vec_fp: 4_000.0,
            loads: 3_000.0,
            stores: 1_000.0,
            branches: 1_000.0,
            ..UopMix::default()
        };
        let stats = sched.run_op(&mix);
        let ideal = mix.total() / 4.0;
        assert!(stats.cycles >= ideal * 0.95);
        assert!(stats.cycles <= ideal * 1.5, "{} vs {}", stats.cycles, ideal);
    }

    #[test]
    fn gathers_saturate_load_ports() {
        let sched = PortScheduler::new(broadwell_ports());
        let stats = sched.run_op(&UopMix {
            gathers: 1_000.0,
            scalar_int: 500.0,
            ..UopMix::default()
        });
        // Each gather keeps a load port busy 4 cycles; 2 ports → ≥2000.
        assert!(stats.cycles >= 1_900.0, "{}", stats.cycles);
    }

    #[test]
    fn histogram_reflects_pressure() {
        let sched = PortScheduler::new(broadwell_ports());
        let heavy = sched.run_op(&UopMix {
            scalar_int: 4_000.0,
            vec_fp: 2_000.0,
            loads: 2_000.0,
            stores: 1_000.0,
            ..UopMix::default()
        });
        let light = sched.run_op(&UopMix {
            vec_fp: 1_000.0,
            ..UopMix::default()
        });
        assert!(heavy.frac_at_least(3) > light.frac_at_least(3));
    }

    #[test]
    fn extrapolation_preserves_cycle_per_uop() {
        let sched = PortScheduler::new(broadwell_ports());
        let small = sched.run_op(&UopMix {
            vec_fp: 10_000.0,
            ..UopMix::default()
        });
        let big = sched.run_op(&UopMix {
            vec_fp: 10_000_000.0,
            ..UopMix::default()
        });
        let ratio = big.cycles / small.cycles;
        assert!((900.0..1100.0).contains(&ratio), "{ratio}");
    }

    #[test]
    fn empty_mix_is_free() {
        let sched = PortScheduler::new(broadwell_ports());
        let stats = sched.run_op(&UopMix::default());
        assert_eq!(stats.cycles, 0.0);
    }
}
