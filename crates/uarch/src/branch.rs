use drec_trace::BranchProfile;

/// Configuration of a gshare branch predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GshareConfig {
    /// log2 of the pattern-history-table size (2-bit counters).
    pub table_bits: u32,
    /// Global history length in bits.
    pub history_bits: u32,
    /// Use a per-PC bimodal fallback when the gshare entry is not
    /// confident — a first-order stand-in for the TAGE-class predictors of
    /// Skylake-derived cores, which capture per-branch bias even when
    /// global history is uninformative (paper Fig 15: Cascade Lake's
    /// "enhanced speculation capabilities").
    pub bimodal_fallback: bool,
}

/// Classic gshare: a pattern history table of 2-bit saturating counters
/// indexed by `pc ⊕ global_history`.
///
/// Bigger tables reduce destructive aliasing between the many distinct
/// branch sites of operator-rich models — one of the mechanisms behind
/// Cascade Lake's lower mispredict counts (Fig 15).
#[derive(Debug, Clone)]
pub struct GsharePredictor {
    config: GshareConfig,
    table: Vec<u8>,
    bimodal: Vec<u8>,
    history: u64,
}

impl GsharePredictor {
    /// The predictor's configuration.
    pub fn config(&self) -> GshareConfig {
        self.config
    }

    /// Creates a predictor with weakly-not-taken counters.
    pub fn new(config: GshareConfig) -> Self {
        GsharePredictor {
            config,
            table: vec![1; 1 << config.table_bits],
            bimodal: vec![1; 1 << config.table_bits.min(12)],
            history: 0,
        }
    }

    /// Returns every counter to weakly-not-taken and clears the history:
    /// [`GsharePredictor::new`]'s state.
    pub fn clear(&mut self) {
        self.table.fill(1);
        self.bimodal.fill(1);
        self.history = 0;
    }

    /// Predicts and updates for one branch; returns `true` on mispredict.
    pub fn execute(&mut self, pc: u64, taken: bool) -> bool {
        let mask = (1u64 << self.config.table_bits) - 1;
        let hist = self.history & ((1u64 << self.config.history_bits.min(63)) - 1);
        let idx = ((pc >> 2) ^ hist) & mask;
        let counter = self.table[idx as usize];
        let bi_idx = ((pc >> 2) & ((self.bimodal.len() - 1) as u64)) as usize;
        let bi = self.bimodal[bi_idx];
        // Bias-dominant hybrid: modern (TAGE-class) predictors reliably
        // capture per-branch bias even when global history is noise, so
        // they predict from the per-PC table unless the history-indexed
        // entry is saturated *and* the bias entry is not — plain gshare
        // predicts from the pattern table alone.
        let predicted = if self.config.bimodal_fallback {
            if (counter == 0 || counter == 3) && bi != 0 && bi != 3 {
                counter >= 2
            } else {
                bi >= 2
            }
        } else {
            counter >= 2
        };
        let c = &mut self.table[idx as usize];
        if taken && *c < 3 {
            *c += 1;
        } else if !taken && *c > 0 {
            *c -= 1;
        }
        let b = &mut self.bimodal[bi_idx];
        if taken && *b < 3 {
            *b += 1;
        } else if !taken && *b > 0 {
            *b -= 1;
        }
        self.history = (self.history << 1) | taken as u64;
        predicted != taken
    }
}

/// Mispredict statistics for one branch stream window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BranchStats {
    /// Branches executed (weighted).
    pub branches: f64,
    /// Mispredicts (weighted).
    pub mispredicts: f64,
}

impl BranchStats {
    /// Mispredict ratio (0 for an empty window).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.branches > 0.0 {
            self.mispredicts / self.branches
        } else {
            0.0
        }
    }

    /// Accumulates another window.
    pub fn add(&mut self, other: &BranchStats) {
        self.branches += other.branches;
        self.mispredicts += other.mispredicts;
    }
}

/// Cap on simulated branch events per op; the remainder is extrapolated.
const MAX_SIM_BRANCHES: u64 = 8_192;

/// Average trip count assumed between loop-exit events when synthesising
/// loop branch outcomes (taken `TRIP-1` times, then not-taken once).
const LOOP_TRIP: u64 = 96;

/// Where every synthesiser's outcome stream starts.
const RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Synthesises per-op branch outcome streams from a [`BranchProfile`] and
/// drives them through a [`GsharePredictor`].
///
/// Loop branches follow a taken/taken/…/not-taken trip pattern; data
/// branches are Bernoulli with a per-site bias derived from the profile's
/// taken rate (sites spread ±0.2 around it); indirect branches are treated
/// as taken with a site-dependent target check. Each op gets branch sites
/// at distinct PCs (derived from `op_seed`), so predictor capacity is
/// genuinely exercised by operator-rich models.
#[derive(Debug)]
pub struct BranchSynth {
    predictor: GsharePredictor,
    rng_state: u64,
}

impl BranchSynth {
    /// Creates a synthesiser over a fresh predictor.
    pub fn new(config: GshareConfig) -> Self {
        BranchSynth {
            predictor: GsharePredictor::new(config),
            rng_state: RNG_SEED,
        }
    }

    /// [`BranchSynth::new`]'s state: a fresh predictor and the outcome
    /// stream from its start.
    pub fn clear(&mut self) {
        self.predictor.clear();
        self.rng_state = RNG_SEED;
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.rng_state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng_state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Simulates one op's branch behaviour; returns its stats.
    pub fn run_op(&mut self, profile: &BranchProfile, op_seed: u64) -> BranchStats {
        let mut stats = BranchStats::default();
        let pc_base = 0x40_0000 + op_seed.wrapping_mul(0x1337) % (1 << 30);

        // Loop branches: mostly-taken with periodic exits. TAGE-class
        // predictors (modelled by `bimodal_fallback`) capture loop
        // periodicity with their long-history components and mispredict
        // only a fraction of the exits; plain gshare eats every exit whose
        // trip count exceeds its history.
        let loop_total = profile.loop_branches.max(0.0);
        if loop_total > 0.0 {
            stats.branches += loop_total;
            if self.predictor.config().bimodal_fallback {
                let exits = loop_total / LOOP_TRIP as f64;
                stats.mispredicts += exits * 0.1;
            } else {
                let loop_sim = (loop_total as u64).clamp(1, MAX_SIM_BRANCHES / 2);
                let weight = loop_total / loop_sim as f64;
                let mut miss = 0.0;
                for i in 0..loop_sim {
                    let taken = i % LOOP_TRIP != LOOP_TRIP - 1;
                    if self.predictor.execute(pc_base, taken) {
                        miss += 1.0;
                    }
                }
                stats.mispredicts += miss * weight;
            }
        }

        // Data-dependent branches: Bernoulli per site, 8 sites per op.
        let data_total = profile.data_branches.max(0.0);
        let data_sim = (data_total as u64).min(MAX_SIM_BRANCHES / 2);
        if data_sim > 0 {
            let weight = data_total / data_sim as f64;
            let mut miss = 0.0;
            for i in 0..data_sim {
                let site = i % 8;
                // Sites alternate bias direction around 50%: half lean
                // taken, half lean not-taken with the profile's strength.
                // Aliasing in a small pattern table then receives
                // conflicting updates and loses the per-site bias that a
                // per-PC bimodal table retains.
                let strength = (profile.data_taken_rate - 0.5).abs();
                let site_bias = if site % 2 == 0 {
                    (0.5 + strength).clamp(0.02, 0.98)
                } else {
                    (0.5 - strength).clamp(0.02, 0.98)
                };
                let taken = self.next_f64() < site_bias;
                let pc = pc_base + 0x40 + site * 0x10;
                if self.predictor.execute(pc, taken) {
                    miss += 1.0;
                }
            }
            stats.branches += data_total;
            stats.mispredicts += miss * weight;
        }

        // Indirect/dispatch branches: strongly biased, occasionally surprising.
        let ind = profile.indirect_branches.max(0.0);
        if ind > 0.0 {
            let sim = (ind as u64).clamp(1, 256);
            let weight = ind / sim as f64;
            let mut miss = 0.0;
            for i in 0..sim {
                let taken = self.next_f64() < 0.92;
                if self.predictor.execute(pc_base + 0x800 + (i % 4) * 8, taken) {
                    miss += 1.0;
                }
            }
            stats.branches += ind;
            stats.mispredicts += miss * weight;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BIG: GshareConfig = GshareConfig {
        table_bits: 15,
        history_bits: 16,
        bimodal_fallback: true,
    };

    #[test]
    fn loops_are_nearly_perfectly_predicted() {
        let mut synth = BranchSynth::new(BIG);
        let stats = synth.run_op(
            &BranchProfile {
                loop_branches: 100_000.0,
                ..BranchProfile::default()
            },
            1,
        );
        // Only loop exits (1/TRIP) can mispredict, and gshare learns most
        // of those from history.
        assert!(
            stats.mispredict_ratio() < 0.08,
            "{}",
            stats.mispredict_ratio()
        );
    }

    #[test]
    fn random_data_branches_mispredict_heavily() {
        let mut synth = BranchSynth::new(BIG);
        let stats = synth.run_op(
            &BranchProfile {
                data_branches: 100_000.0,
                data_taken_rate: 0.5,
                ..BranchProfile::default()
            },
            2,
        );
        assert!(
            stats.mispredict_ratio() > 0.25,
            "{}",
            stats.mispredict_ratio()
        );
    }

    #[test]
    fn biased_data_branches_mispredict_less_than_fair_ones() {
        let mut a = BranchSynth::new(BIG);
        let biased = a.run_op(
            &BranchProfile {
                data_branches: 50_000.0,
                data_taken_rate: 0.1,
                ..BranchProfile::default()
            },
            3,
        );
        let mut b = BranchSynth::new(BIG);
        let fair = b.run_op(
            &BranchProfile {
                data_branches: 50_000.0,
                data_taken_rate: 0.5,
                ..BranchProfile::default()
            },
            3,
        );
        assert!(biased.mispredict_ratio() < fair.mispredict_ratio());
    }

    #[test]
    fn small_table_aliases_across_many_ops() {
        let small = GshareConfig {
            table_bits: 8,
            history_bits: 8,
            bimodal_fallback: false,
        };
        let run = |cfg: GshareConfig| {
            let mut synth = BranchSynth::new(cfg);
            let mut total = BranchStats::default();
            for op in 0..200 {
                total.add(&synth.run_op(
                    &BranchProfile {
                        loop_branches: 800.0,
                        data_branches: 400.0,
                        data_taken_rate: 0.2,
                        indirect_branches: 16.0,
                    },
                    op,
                ));
            }
            total
        };
        let small_stats = run(small);
        let big_stats = run(BIG);
        assert!(
            small_stats.mispredict_ratio() > big_stats.mispredict_ratio(),
            "small {} vs big {}",
            small_stats.mispredict_ratio(),
            big_stats.mispredict_ratio()
        );
    }

    #[test]
    fn extrapolation_scales_counts() {
        let mut synth = BranchSynth::new(BIG);
        let stats = synth.run_op(
            &BranchProfile {
                data_branches: 10_000_000.0,
                data_taken_rate: 0.5,
                ..BranchProfile::default()
            },
            7,
        );
        assert_eq!(stats.branches, 10_000_000.0);
        assert!(stats.mispredicts > 1_000_000.0);
    }
}
