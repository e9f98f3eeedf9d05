//! Pins the figure drivers' outcomes bit for bit at a reduced length.
//!
//! One hermetic runner (no trace directory) at 2,000 + 8,000 instructions,
//! seed 42 and a 1,024-access controller interval runs the whole-paper
//! driver (`paper`) over the twelve SPEC profiles:
//!
//! * the static grid over every organization at 2/4/8/16-way on both L1s
//!   (Figures 4, 5 and 6);
//! * static vs. dynamic selective-sets resizing of both L1s on both
//!   processors (Figures 7 and 8);
//! * dual resizing (Figure 9) and Table 1's hybrid grid.
//!
//! Each outcome is one line of `tests/fixtures/figure_golden.txt`: the
//! chosen point or controller parameters, the base and chosen `cycles` and
//! `energy_pj.to_bits()`, the measured resizes, and an FNV-1a hash over
//! every evaluated point or candidate (its choice, cycles and energy bits).
//! The percentages every figure prints derive from these fields, so a
//! change that passes this test prints the same figures.
//!
//! A change that means to move results re-blesses the table in the same
//! change:
//!
//! ```text
//! RESCACHE_BLESS_FIXTURES=1 cargo test --test figure_golden
//! ```
//!
//! then commits the rewritten fixture and says why the results changed. An
//! unintended change fails and prints the drifted lines and today's table.

use std::fmt::Write as _;
use std::path::PathBuf;

use rescache::core::experiment::{paper, DynamicOutcome, Measurement, StaticOutcome};
use rescache::core::org::hybrid_grid;
use rescache::prelude::*;

fn runner() -> Runner {
    let config = RunnerConfig {
        warmup_instructions: 2_000,
        measure_instructions: 8_000,
        trace_seed: 42,
        dynamic_interval: 1_024,
        ..RunnerConfig::fast()
    };
    Runner::with_store(config, SharedTier::with_dir(None))
}

/// FNV-1a over little-endian words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `cycles/energy bits` of one measurement.
fn bits(m: &Measurement) -> String {
    format!("{}/{:016x}", m.cycles, m.energy_pj.to_bits())
}

/// `resizes=d/i` of one measurement.
fn resizes(m: &Measurement) -> String {
    format!("resizes={}/{}", m.l1d_resizes, m.l1i_resizes)
}

fn static_line(o: &StaticOutcome) -> String {
    let point = o.best.choice;
    let hash = fnv1a(
        o.evaluated
            .iter()
            .flat_map(|(p, m)| [p.sets, u64::from(p.ways), m.cycles, m.energy_pj.to_bits()]),
    );
    format!(
        "{} point={}x{} base={} best={} {} evaluated={}:{hash:016x}",
        o.app,
        point.sets,
        point.ways,
        bits(&o.base),
        bits(&o.best.measurement),
        resizes(&o.best.measurement),
        o.evaluated.len(),
    )
}

fn dynamic_line(o: &DynamicOutcome) -> String {
    let chosen = o.best.choice;
    let hash = fnv1a(o.evaluated.iter().flat_map(|(p, m)| {
        [
            p.interval_accesses,
            p.miss_bound,
            p.size_bound_bytes,
            m.cycles,
            m.energy_pj.to_bits(),
        ]
    }));
    format!(
        "{} params={}/{}/{} base={} best={} {} candidates={}:{hash:016x}",
        o.app,
        chosen.interval_accesses,
        chosen.miss_bound,
        chosen.size_bound_bytes,
        bits(&o.base),
        bits(&o.best.measurement),
        resizes(&o.best.measurement),
        o.evaluated.len(),
    )
}

/// Today's outcomes as fixture text.
fn regenerate() -> String {
    let runner = runner();
    let apps = spec::all_profiles();
    let mut text = String::new();

    let grid = hybrid_grid(CacheConfig::l1_default(32 * 1024, 4)).expect("hybrid applies");
    for line in grid.render().lines() {
        writeln!(text, "table1 {line}").unwrap();
    }

    let paper = paper(&runner, &apps);
    for (side, cells) in ResizableCacheSide::ALL.into_iter().zip(&paper.grids) {
        for (assoc, org, outcomes) in cells {
            for o in outcomes {
                let line = static_line(o);
                writeln!(text, "grid {side} {assoc}-way {} {line}", org.label()).unwrap();
            }
        }
    }

    for (index, name) in ["in-order", "out-of-order"].into_iter().enumerate() {
        for (side, per_system) in ResizableCacheSide::ALL.into_iter().zip(&paper.strategies) {
            for (s, d) in &per_system[index] {
                writeln!(text, "strategy {name} {side} static {}", static_line(s)).unwrap();
                writeln!(text, "strategy {name} {side} dynamic {}", dynamic_line(d)).unwrap();
            }
        }
    }

    for o in &paper.dual {
        writeln!(text, "dual d-alone {}", static_line(&o.d_alone)).unwrap();
        writeln!(text, "dual i-alone {}", static_line(&o.i_alone)).unwrap();
        writeln!(
            text,
            "dual both {} both={} {}",
            o.d_alone.app,
            bits(&o.both),
            resizes(&o.both)
        )
        .unwrap();
    }
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/figure_golden.txt")
}

fn bless_requested() -> bool {
    std::env::var("RESCACHE_BLESS_FIXTURES")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false)
}

#[test]
fn figure_outcomes_match_the_pinned_table() {
    let regenerated = regenerate();
    if bless_requested() {
        std::fs::write(fixture_path(), &regenerated).expect("write figure golden");
        eprintln!("blessed {}", fixture_path().display());
    }
    let pinned = std::fs::read_to_string(fixture_path()).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); see module docs",
            fixture_path().display()
        )
    });
    let drifted: Vec<String> = pinned
        .lines()
        .zip(regenerated.lines())
        .filter(|(pinned, now)| pinned != now)
        .map(|(pinned, now)| format!("  pinned {pinned}\n  now    {now}"))
        .collect();
    assert!(
        drifted.is_empty() && pinned.lines().count() == regenerated.lines().count(),
        "figure outcomes drifted from tests/fixtures/figure_golden.txt:\n{}\n\
         today's table:\n{regenerated}",
        drifted.join("\n")
    );
}

#[test]
fn the_hash_sees_every_word() {
    let base = [1u64, 2, 3];
    for i in 0..base.len() {
        let mut changed = base;
        changed[i] ^= 1 << 40;
        assert_ne!(fnv1a(base), fnv1a(changed), "word {i}");
    }
    assert_ne!(fnv1a([1, 2]), fnv1a([2, 1]), "order matters");
}
