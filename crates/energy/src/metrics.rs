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

/// The scalar objective an experiment minimises when ranking configurations.
///
/// The paper's searches minimise the energy-delay product; the latency-first
/// objectives let the same searches weigh execution time more heavily (ED²P)
/// or exclusively (pure delay). Selection order can change; simulation
/// results never do — the objective only scores points that were already
/// measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Energy × delay (the paper's metric, and the default).
    #[default]
    Edp,
    /// Energy × delay²: latency-weighted, still energy-aware.
    Ed2p,
    /// Delay alone: pure performance, energy ignored.
    Delay,
}

impl Objective {
    /// The score this objective assigns to a measured point (smaller is
    /// better). For [`Objective::Edp`] this is exactly
    /// [`EnergyDelay::product`], so EDP-ranked searches are bit-identical to
    /// the pre-objective code.
    pub fn score(&self, point: &EnergyDelay) -> f64 {
        match self {
            Objective::Edp => point.product(),
            Objective::Ed2p => point.product() * point.cycles as f64,
            Objective::Delay => point.cycles as f64,
        }
    }

    /// The objective's lower-case tag, as accepted by
    /// [`Objective::from_tag`] and used in JSON renderings.
    pub fn tag(&self) -> &'static str {
        match self {
            Objective::Edp => "edp",
            Objective::Ed2p => "ed2p",
            Objective::Delay => "delay",
        }
    }

    /// Parses an objective tag (`edp`, `ed2p`, `delay`).
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "edp" => Some(Objective::Edp),
            "ed2p" => Some(Objective::Ed2p),
            "delay" => Some(Objective::Delay),
            _ => None,
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

    #[test]
    fn objectives_rank_points_differently() {
        // A slow-but-frugal point vs a fast-but-hungry one: EDP prefers the
        // frugal point, delay prefers the fast one, ED²P sides with delay
        // here because the cycle gap is squared.
        let frugal = EnergyDelay::new(50.0, 2000);
        let fast = EnergyDelay::new(200.0, 700);
        assert!(Objective::Edp.score(&frugal) < Objective::Edp.score(&fast));
        assert!(Objective::Delay.score(&fast) < Objective::Delay.score(&frugal));
        assert!(Objective::Ed2p.score(&fast) < Objective::Ed2p.score(&frugal));
    }

    #[test]
    fn objective_tags_round_trip() {
        for o in [Objective::Edp, Objective::Ed2p, Objective::Delay] {
            assert_eq!(Objective::from_tag(o.tag()), Some(o));
        }
        assert_eq!(Objective::from_tag("mips"), None);
        assert_eq!(Objective::default(), Objective::Edp);
    }
}
