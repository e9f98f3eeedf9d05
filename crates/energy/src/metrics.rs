//! Energy-delay metrics.
//!
//! The paper reports the **energy-delay product of the whole processor**,
//! normalised to a non-resizable cache of the same size and set-associativity,
//! and quotes reductions in percent. These helpers implement exactly that
//! arithmetic so every experiment driver reports it the same way.

/// Energy and execution time of one simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyDelay {
    /// Total energy in picojoules.
    pub energy_pj: f64,
    /// Execution time in cycles.
    pub cycles: u64,
}

impl EnergyDelay {
    /// Creates a metric point.
    ///
    /// # Panics
    ///
    /// Panics if `energy_pj` is negative or not finite.
    pub fn new(energy_pj: f64, cycles: u64) -> Self {
        assert!(
            energy_pj.is_finite() && energy_pj >= 0.0,
            "energy must be finite and non-negative"
        );
        Self { energy_pj, cycles }
    }

    /// The energy-delay product (picojoule-cycles).
    pub fn product(&self) -> f64 {
        self.energy_pj * self.cycles as f64
    }

    /// This point's energy-delay product relative to `base` (1.0 = equal,
    /// smaller is better).
    pub fn relative_to(&self, base: &EnergyDelay) -> f64 {
        let denom = base.product();
        if denom == 0.0 {
            return f64::INFINITY;
        }
        self.product() / denom
    }

    /// Reduction of the energy-delay product versus `base`, in percent
    /// (positive = this point is better than the base).
    pub fn reduction_vs(&self, base: &EnergyDelay) -> f64 {
        (1.0 - self.relative_to(base)) * 100.0
    }

    /// Performance degradation versus `base`, in percent of execution time
    /// (positive = this point is slower).
    pub fn slowdown_vs(&self, base: &EnergyDelay) -> f64 {
        if base.cycles == 0 {
            return 0.0;
        }
        (self.cycles as f64 / base.cycles as f64 - 1.0) * 100.0
    }

    /// Energy reduction versus `base`, in percent.
    pub fn energy_reduction_vs(&self, base: &EnergyDelay) -> f64 {
        if base.energy_pj == 0.0 {
            return 0.0;
        }
        (1.0 - self.energy_pj / base.energy_pj) * 100.0
    }
}

/// The scalar an experiment minimises when ranking configurations: the
/// energy-delay product, the paper's metric and the only ranking.
///
/// A one-variant remnant kept because the benchmark's reference checker
/// scores points through it; new code ranks by [`EnergyDelay::product`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Energy × delay.
    #[default]
    Edp,
}

impl Objective {
    /// The score this objective assigns to a measured point (smaller is
    /// better): exactly [`EnergyDelay::product`].
    pub fn score(&self, point: &EnergyDelay) -> f64 {
        match self {
            Objective::Edp => point.product(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn product_and_relative() {
        let base = EnergyDelay::new(100.0, 1000);
        let better = EnergyDelay::new(80.0, 1010);
        assert!((base.product() - 100_000.0).abs() < 1e-9);
        let rel = better.relative_to(&base);
        assert!((rel - 0.808).abs() < 1e-3);
        assert!((better.reduction_vs(&base) - 19.2).abs() < 0.1);
    }

    #[test]
    fn slowdown_and_energy_reduction() {
        let base = EnergyDelay::new(100.0, 1000);
        let point = EnergyDelay::new(70.0, 1030);
        assert!((point.slowdown_vs(&base) - 3.0).abs() < 1e-9);
        assert!((point.energy_reduction_vs(&base) - 30.0).abs() < 1e-9);
    }

    #[test]
    fn equal_points_have_zero_reduction() {
        let a = EnergyDelay::new(50.0, 500);
        assert!(a.reduction_vs(&a).abs() < 1e-12);
        assert!(a.slowdown_vs(&a).abs() < 1e-12);
    }

    #[test]
    fn zero_base_is_handled() {
        let zero = EnergyDelay::new(0.0, 0);
        let point = EnergyDelay::new(1.0, 1);
        assert!(point.relative_to(&zero).is_infinite());
        assert_eq!(point.slowdown_vs(&zero), 0.0);
        assert_eq!(point.energy_reduction_vs(&zero), 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn negative_energy_panics() {
        let _ = EnergyDelay::new(-1.0, 10);
    }

    #[test]
    fn edp_score_equals_the_product() {
        let p = EnergyDelay::new(123.5, 777);
        assert_eq!(Objective::Edp.score(&p).to_bits(), p.product().to_bits());
    }
}
