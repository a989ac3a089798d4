use std::collections::BTreeMap;

/// Per-operator-type time shares — the unit of comparison in the paper's
/// Fig 6/7 operator breakdowns.
///
/// Built from `(operator type, seconds)` pairs; stores both absolute
/// seconds and normalised fractions, sorted descending, operators with
/// equal seconds by name — the same entries always give the same order
/// and the same total, bit for bit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Breakdown {
    entries: Vec<(String, f64)>,
    total: f64,
}

impl Breakdown {
    /// Aggregates `(op type, seconds)` pairs into a sorted breakdown.
    pub fn from_entries<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (String, f64)>,
    {
        let mut by_type: BTreeMap<String, f64> = BTreeMap::new();
        for (name, secs) in entries {
            *by_type.entry(name).or_insert(0.0) += secs;
        }
        let mut entries: Vec<(String, f64)> = by_type.into_iter().collect();
        entries.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total = entries.iter().map(|e| e.1).sum();
        Breakdown { entries, total }
    }

    /// Total seconds across all operator types.
    pub fn total_seconds(&self) -> f64 {
        self.total
    }

    /// Fraction of total time spent in `op_type` (0.0 if absent).
    pub fn share(&self, op_type: &str) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.entries
            .iter()
            .find(|(n, _)| n == op_type)
            .map(|(_, s)| s / self.total)
            .unwrap_or(0.0)
    }

    /// The operator type with the largest share, if any.
    pub fn dominant(&self) -> Option<&str> {
        self.entries.first().map(|(n, _)| n.as_str())
    }

    /// `(op type, fraction)` pairs, largest first.
    pub fn shares(&self) -> Vec<(String, f64)> {
        if self.total <= 0.0 {
            return Vec::new();
        }
        self.entries
            .iter()
            .map(|(n, s)| (n.clone(), s / self.total))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_and_sorts() {
        let b = Breakdown::from_entries(vec![
            ("FC".to_string(), 3.0),
            ("Relu".to_string(), 1.0),
            ("FC".to_string(), 2.0),
        ]);
        assert_eq!(b.dominant(), Some("FC"));
        assert!((b.total_seconds() - 6.0).abs() < 1e-12);
        assert!((b.share("FC") - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(b.share("Missing"), 0.0);
    }

    #[test]
    fn equal_shares_order_by_name_and_total_is_reproducible() {
        // A hash map orders ties (and sums the total) differently in
        // every construction.
        let build = || {
            Breakdown::from_entries(
                ["Relu", "Concat", "FC", "Sigmoid", "Sum"]
                    .into_iter()
                    .map(|name| (name.to_string(), if name == "FC" { 0.7 } else { 0.1 })),
            )
        };
        let first = build();
        let names: Vec<&str> = first.entries.iter().map(|e| e.0.as_str()).collect();
        assert_eq!(names, ["FC", "Concat", "Relu", "Sigmoid", "Sum"]);
        for _ in 0..32 {
            let again = build();
            assert_eq!(again.entries, first.entries);
            assert_eq!(
                again.total_seconds().to_bits(),
                first.total_seconds().to_bits()
            );
        }
    }

    #[test]
    fn empty_breakdown() {
        let b = Breakdown::from_entries(Vec::<(String, f64)>::new());
        assert_eq!(b.dominant(), None);
        assert_eq!(b.share("FC"), 0.0);
        assert!(b.shares().is_empty());
    }

    #[test]
    fn shares_sum_to_one() {
        let b = Breakdown::from_entries(vec![
            ("A".to_string(), 1.0),
            ("B".to_string(), 2.0),
            ("C".to_string(), 7.0),
        ]);
        let sum: f64 = b.shares().iter().map(|s| s.1).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }
}
