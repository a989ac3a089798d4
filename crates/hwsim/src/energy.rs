//! First-order energy accounting from Table II TDP figures.
//!
//! The paper lists each platform's TDP; combining it with modelled
//! execution time gives a board-level energy estimate — coarse (TDP is an
//! upper bound on sustained power) but sufficient to rank platforms on
//! inferences/joule, which is the metric datacenter deployments optimise
//! alongside latency.

use crate::{Platform, PlatformReport};

impl Platform {
    /// Thermal design power in watts (Table II).
    pub(crate) fn tdp_watts(&self) -> f64 {
        match self.name() {
            "Broadwell" => 145.0,
            "Cascade Lake" => 150.0,
            "GTX 1080 Ti" => 250.0,
            "T4" => 70.0,
            // Custom platforms: estimate from class.
            _ => match self {
                Platform::Cpu(_) => 150.0,
                Platform::Gpu(_) => 200.0,
            },
        }
    }
}

/// Energy metrics derived from a platform report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Estimated joules for the inference (TDP × seconds).
    pub joules: f64,
    /// Inferences per joule at the report's batch size.
    pub inferences_per_joule: f64,
}

/// Computes energy metrics for a report produced on `platform` at the
/// given batch size.
pub fn energy(platform: &Platform, report: &PlatformReport, batch: usize) -> EnergyReport {
    let joules = platform.tdp_watts() * report.seconds;
    EnergyReport {
        joules,
        inferences_per_joule: if joules > 0.0 {
            batch as f64 / joules
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tdp_matches_table_two() {
        assert_eq!(Platform::broadwell().tdp_watts(), 145.0);
        assert_eq!(Platform::cascade_lake().tdp_watts(), 150.0);
        assert_eq!(Platform::gtx_1080_ti().tdp_watts(), 250.0);
        assert_eq!(Platform::t4().tdp_watts(), 70.0);
    }

    #[test]
    fn energy_scales_with_time_and_tdp() {
        let report = PlatformReport {
            platform: "T4".to_string(),
            seconds: 0.01,
            cpu: None,
            gpu: None,
        };
        let e = energy(&Platform::t4(), &report, 64);
        assert!((e.joules - 0.7).abs() < 1e-12);
        assert!((e.inferences_per_joule - 64.0 / 0.7).abs() < 1e-9);
    }
}
