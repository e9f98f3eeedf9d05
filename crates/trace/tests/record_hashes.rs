//! Pins trace generation by record hashes: one FNV-1a hash of the generated
//! records per (profile, seed, length), for every SPEC profile and every
//! registry workload.
//!
//! The golden fixtures pin three workloads through the codec's container;
//! these hashes pin the generator alone, over all 21 profiles, so an
//! optimisation of the generator must reproduce every record bit for bit.
//! The hash covers each record's packed fields in a fixed order (PC and
//! address as little-endian `u32`, then the kind tag and both dependency
//! distances). That order is also the v4 container's record body, so a
//! fixture's body is these bytes verbatim; the hash itself reads no file.
//!
//! A deliberate generator change re-blesses the table in the same change:
//!
//! ```text
//! RESCACHE_BLESS_FIXTURES=1 cargo test -p rescache-trace --test record_hashes
//! ```
//!
//! then commit the rewritten `tests/fixtures/record_hashes.txt` and say why
//! the traces changed. An unintended change fails and prints the table.

use std::path::PathBuf;

use rescache_trace::{spec, AppProfile, InstrRecord, TraceGenerator, WorkloadRegistry};

/// The (seed, length) pairs hashed for every profile, short enough for a
/// debug build. Sequenced phases occupy fractions of the length, so each
/// length puts their boundaries at different records.
const CASES: [(u64, usize); 3] = [(42, 100_000), (7, 20_000), (1, 3_000)];

/// FNV-1a over the records' packed fields.
fn record_hash(records: &[InstrRecord]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for record in records {
        let pc = record.pc_raw().to_le_bytes();
        let addr = record.addr_raw().to_le_bytes();
        let tail = [record.kind_tag(), record.dep1(), record.dep2()];
        for byte in pc.iter().chain(&addr).chain(&tail) {
            hash ^= u64::from(*byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The twelve SPEC profiles, then the registry workloads, in their orders.
fn profiles() -> Vec<AppProfile> {
    let mut profiles = spec::all_profiles();
    profiles.extend(WorkloadRegistry::builtin().profiles());
    profiles
}

/// Today's generator output as fixture text: one
/// `<profile> <seed> <length> <hash>` line per case.
fn regenerate() -> String {
    let mut text = String::new();
    for profile in profiles() {
        for (seed, length) in CASES {
            let trace = TraceGenerator::new(profile.clone(), seed).generate(length);
            text.push_str(&format!(
                "{} {seed} {length} {:#018x}\n",
                profile.name,
                record_hash(trace.records())
            ));
        }
    }
    text
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/record_hashes.txt")
}

fn bless_requested() -> bool {
    std::env::var("RESCACHE_BLESS_FIXTURES")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false)
}

#[test]
fn generated_records_match_their_pinned_hashes() {
    let regenerated = regenerate();
    if bless_requested() {
        std::fs::write(fixture_path(), &regenerated).expect("write record hashes");
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
        "generated records drifted from tests/fixtures/record_hashes.txt:\n{}\n\
         today's table:\n{regenerated}",
        drifted.join("\n")
    );
    assert_eq!(
        pinned.lines().count(),
        21 * CASES.len(),
        "one line per profile and case"
    );
}

#[test]
fn the_hash_sees_every_record_field() {
    use rescache_trace::Op;
    let base = InstrRecord::with_deps(0x40_0000, Op::Load(0x1000_0040), 3, 5);
    let variants = [
        InstrRecord::with_deps(0x40_0004, Op::Load(0x1000_0040), 3, 5),
        InstrRecord::with_deps(0x40_0000, Op::Load(0x1000_0048), 3, 5),
        InstrRecord::with_deps(0x40_0000, Op::Store(0x1000_0040), 3, 5),
        InstrRecord::with_deps(0x40_0000, Op::Load(0x1000_0040), 4, 5),
        InstrRecord::with_deps(0x40_0000, Op::Load(0x1000_0040), 3, 6),
    ];
    for variant in variants {
        assert_ne!(record_hash(&[base]), record_hash(&[variant]), "{variant:?}");
    }
}
