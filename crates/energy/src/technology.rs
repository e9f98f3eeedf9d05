//! The technology point: supply voltage and the base energy scale factors
//! every other model multiplies into.

/// A CMOS technology point.
///
/// The paper assumes a 0.18 µm process. Only ratios matter for the study's
/// conclusions, but keeping the technology explicit makes the scale factors
/// auditable and lets ablation benches explore voltage/feature scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Technology {
    /// Drawn feature size in nanometres.
    pub feature_nm: f64,
    /// Supply voltage in volts.
    pub vdd: f64,
    /// Energy (picojoules) to swing one kilobyte of precharged bitlines.
    pub bitline_pj_per_kb: f64,
    /// Energy (picojoules) per sensed + driven output bit.
    pub sense_pj_per_bit: f64,
    /// Energy (picojoules) per decoded index bit (decoder + wordline drive).
    pub decode_pj_per_bit: f64,
    /// Leakage power (picojoules per cycle) per kilobyte of powered SRAM.
    pub leak_pj_per_kb_cycle: f64,
}

impl Technology {
    /// The 0.18 µm, 1.8 V point used by the paper's evaluation.
    pub fn deep_submicron_180nm() -> Self {
        Self {
            feature_nm: 180.0,
            vdd: 1.8,
            bitline_pj_per_kb: 27.0,
            sense_pj_per_bit: 0.09,
            decode_pj_per_bit: 1.2,
            leak_pj_per_kb_cycle: 0.01,
        }
    }
}

impl Default for Technology {
    fn default() -> Self {
        Self::deep_submicron_180nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_180nm() {
        let t = Technology::default();
        assert_eq!(t.feature_nm, 180.0);
        assert!(t.vdd > 1.0);
        assert!(t.bitline_pj_per_kb > 0.0);
    }
}
