//! The branch predictor of the paper's base configuration (Table 2:
//! "combination"): a chooser selects between a bimodal and a gshare
//! component.

/// Prediction accuracy statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches predicted.
    pub predictions: u64,
    /// Mispredicted conditional branches.
    pub mispredictions: u64,
}

impl BranchStats {
    /// Misprediction ratio (0 when no branches were seen).
    pub fn mispredict_ratio(&self) -> f64 {
        if self.predictions == 0 {
            0.0
        } else {
            self.mispredictions as f64 / self.predictions as f64
        }
    }
}

const TABLE_BITS: usize = 11;
const TABLE_SIZE: usize = 1 << TABLE_BITS;
const HISTORY_BITS: u32 = 10;

fn counter_predict(counter: u8) -> bool {
    counter >= 2
}

/// Two-bit saturating-counter update.
///
/// Both directions are computed and the result selected: `taken` follows the
/// simulated program, so a host branch here is unpredictable, and the
/// combining predictor performs up to three of these per simulated branch.
#[inline(always)]
fn counter_update(counter: &mut u8, taken: bool) {
    let up = (*counter + 1).min(3);
    let down = counter.saturating_sub(1);
    *counter = if taken { up } else { down };
}

/// The combining branch direction predictor: per-PC two-bit bimodal
/// counters, global-history XOR PC indexed two-bit gshare counters, and a
/// per-PC chooser between them.
///
/// The counter tables are fixed-size boxed arrays rather than `Vec`s: every
/// index is masked with `TABLE_SIZE - 1` before use, so with the length
/// encoded in the type the compiler drops the bounds checks from
/// [`BranchPredictor::resolve`] — which runs once per simulated conditional
/// branch and performs up to four table reads and three writes.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    bimodal: Box<[u8; TABLE_SIZE]>,
    gshare: Box<[u8; TABLE_SIZE]>,
    chooser: Box<[u8; TABLE_SIZE]>,
    history: u64,
    stats: BranchStats,
}

impl BranchPredictor {
    /// Creates a predictor with 2K-entry tables.
    pub fn new() -> Self {
        Self {
            bimodal: Box::new([2; TABLE_SIZE]),
            gshare: Box::new([2; TABLE_SIZE]),
            chooser: Box::new([2; TABLE_SIZE]),
            history: 0,
            stats: BranchStats::default(),
        }
    }

    fn bimodal_index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (TABLE_SIZE - 1)
    }

    fn gshare_index(&self, pc: u64) -> usize {
        (((pc >> 2) ^ self.history) as usize) & (TABLE_SIZE - 1)
    }

    /// Resolves the branch at `pc`: predicts, updates all tables and
    /// statistics, and returns whether the prediction was correct.
    pub fn resolve(&mut self, pc: u64, taken: bool) -> bool {
        let bimodal_idx = self.bimodal_index(pc);
        let gshare_idx = self.gshare_index(pc);
        let bimodal_pred = counter_predict(self.bimodal[bimodal_idx]);
        let gshare_pred = counter_predict(self.gshare[gshare_idx]);
        let prediction = if counter_predict(self.chooser[bimodal_idx]) {
            gshare_pred
        } else {
            bimodal_pred
        };

        // Chooser learns which component was right (only when they disagree).
        // The no-change case stores the current value back, so the update is
        // a select rather than a branch on simulated data.
        let chooser_cur = self.chooser[bimodal_idx];
        let mut chooser_new = chooser_cur;
        counter_update(&mut chooser_new, gshare_pred == taken);
        self.chooser[bimodal_idx] = if bimodal_pred != gshare_pred {
            chooser_new
        } else {
            chooser_cur
        };
        counter_update(&mut self.bimodal[bimodal_idx], taken);
        counter_update(&mut self.gshare[gshare_idx], taken);
        self.history = ((self.history << 1) | u64::from(taken)) & ((1 << HISTORY_BITS) - 1);

        self.stats.predictions += 1;
        let correct = prediction == taken;
        self.stats.mispredictions += u64::from(!correct);
        correct
    }

    /// Accuracy statistics accumulated so far.
    pub fn stats(&self) -> BranchStats {
        self.stats
    }
}

impl Default for BranchPredictor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken_branch() {
        let mut p = BranchPredictor::new();
        for _ in 0..100 {
            p.resolve(0x400, true);
        }
        assert!(
            p.resolve(0x400, true),
            "a trained taken branch predicts taken"
        );
        assert!(p.stats().mispredict_ratio() < 0.1);
    }

    #[test]
    fn learns_alternating_pattern_with_gshare() {
        // Bimodal counters always miss an alternating branch; the chooser
        // must hand it to the gshare component.
        let mut p = BranchPredictor::new();
        let mut taken = false;
        // Warm up, then measure.
        for _ in 0..200 {
            p.resolve(0x800, taken);
            taken = !taken;
        }
        let before = p.stats().mispredictions;
        for _ in 0..200 {
            p.resolve(0x800, taken);
            taken = !taken;
        }
        let after = p.stats().mispredictions;
        assert!(
            after - before < 20,
            "the gshare component should capture an alternating pattern, got {} extra misses",
            after - before
        );
    }

    #[test]
    fn combining_tracks_best_component() {
        let mut p = BranchPredictor::new();
        // Loop-style branch: taken 15 times, then not taken, repeatedly.
        let mut misses = 0;
        for i in 0..1600 {
            let taken = i % 16 != 15;
            if !p.resolve(0xC00, taken) {
                misses += 1;
            }
        }
        assert!(
            (misses as f64) / 1600.0 < 0.2,
            "combining predictor should do well on loop branches"
        );
    }

    #[test]
    fn random_branches_miss_about_half() {
        let mut p = BranchPredictor::default();
        let mut x = 0x12345u64;
        let mut misses = 0;
        let n = 4000;
        for _ in 0..n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let taken = x & 1 == 1;
            if !p.resolve(0x1000, taken) {
                misses += 1;
            }
        }
        let ratio = misses as f64 / n as f64;
        assert!(
            (0.3..=0.65).contains(&ratio),
            "random branches should be near-unpredictable, ratio {ratio}"
        );
    }

    #[test]
    fn stats_ratio_zero_without_predictions() {
        assert_eq!(BranchStats::default().mispredict_ratio(), 0.0);
    }

    #[test]
    fn different_pcs_use_different_entries() {
        let mut p = BranchPredictor::new();
        for _ in 0..50 {
            p.resolve(0x400, true);
            p.resolve(0x404, false);
        }
        assert!(p.resolve(0x400, true), "0x400 keeps its taken training");
        assert!(
            p.resolve(0x404, false),
            "0x404 keeps its not-taken training"
        );
    }
}
