//! Golden-fixture suite: committed encoded traces that pin the generator +
//! codec byte stream across refactors and across processes.
//!
//! In-process A/B comparison alone cannot catch a refactor that changes
//! generation and decoding *consistently*: every test would pass while
//! persisted stores were silently invalidated. These fixtures are the
//! cross-process anchor: small (11 KiB) encoded traces for three registry
//! workloads, committed under `tests/fixtures/`, with their FNV-1a content
//! hashes pinned in this file. The v4 container stores each record
//! verbatim, in the byte order `record_hashes.rs` already hashes (PC and
//! address as little-endian `u32`, then the kind and both dependency
//! distances), so the records are pinned twice; what these fixtures pin on
//! their own is the container: the magic, the name, the count and the
//! exact file length.
//!
//! A deliberate format bump re-blesses the fixtures (and their hashes) in
//! the same change:
//!
//! ```text
//! RESCACHE_BLESS_FIXTURES=1 cargo test -p rescache-trace --test golden_fixtures
//! ```
//!
//! then commit the regenerated files and paste the printed hash table over
//! `PINNED`. An unintentional byte change fails loudly instead.

use std::path::PathBuf;

use rescache_trace::{codec, TraceFormat, TraceGenerator, WorkloadRegistry};

/// Length of every fixture trace: 1000 records of 11 bytes on disk.
const FIXTURE_RECORDS: usize = 1000;

/// Generation seed shared by every fixture.
const FIXTURE_SEED: u64 = 42;

/// The pinned fixtures: (registry workload, format, FNV-1a hash of the
/// encoded file bytes). Regenerate with `RESCACHE_BLESS_FIXTURES=1` (see
/// the module docs) — and only on a deliberate format bump.
const PINNED: &[(&str, TraceFormat, u64)] = &[
    ("nominal", TraceFormat::V4, 0x577114fdb9e88c8c),
    ("pointer_chase", TraceFormat::V4, 0xd5f87702e97873e5),
    ("phase_flip", TraceFormat::V4, 0xf9306bf1b20dca04),
];

/// FNV-1a over a byte stream (the same construction the workspace uses for
/// profile fingerprints; no external hashing dependency).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fixture_path(workload: &str, format: TraceFormat) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!(
            "{workload}-s{FIXTURE_SEED}-n{FIXTURE_RECORDS}.{}.rctrace",
            format.tag()
        ))
}

/// Encodes the fixture trace for one workload exactly as the committed
/// fixture was produced, through a temporary file.
fn encode_fixture(workload: &str) -> Vec<u8> {
    let profile = WorkloadRegistry::builtin()
        .get(workload)
        .unwrap_or_else(|| panic!("{workload} is a registered workload"))
        .profile();
    let trace = TraceGenerator::new(profile, FIXTURE_SEED).generate(FIXTURE_RECORDS);
    let path = std::env::temp_dir().join(format!(
        "rescache-fixture-{workload}-{}.rctrace",
        std::process::id()
    ));
    codec::save_trace(&path, &trace).expect("save fixture trace");
    let bytes = std::fs::read(&path).expect("read fixture trace");
    std::fs::remove_file(&path).ok();
    bytes
}

fn bless_requested() -> bool {
    std::env::var("RESCACHE_BLESS_FIXTURES")
        .map(|v| !matches!(v.trim(), "" | "0" | "false"))
        .unwrap_or(false)
}

#[test]
fn golden_fixtures_pin_generator_and_codec_bytes() {
    if bless_requested() {
        std::fs::create_dir_all(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures"))
            .expect("create fixtures dir");
        eprintln!("blessed fixture hashes (paste over PINNED):");
        for &(workload, format, _) in PINNED {
            let bytes = encode_fixture(workload);
            std::fs::write(fixture_path(workload, format), &bytes).expect("write fixture");
            eprintln!(
                "    (\"{workload}\", TraceFormat::V4, {:#018x}),",
                fnv1a(&bytes)
            );
        }
    }

    for &(workload, format, pinned_hash) in PINNED {
        let path = fixture_path(workload, format);
        let committed = std::fs::read(&path).unwrap_or_else(|e| {
            panic!("missing fixture {} ({e}); see module docs", path.display())
        });
        // The container is its 20 header bytes, the name and 11 bytes per
        // record, nothing more.
        assert_eq!(
            committed.len(),
            20 + workload.len() + 11 * FIXTURE_RECORDS,
            "{workload} {format}: fixture size"
        );

        // The committed bytes are what today's generator + codec produce…
        let regenerated = encode_fixture(workload);
        assert_eq!(
            regenerated, committed,
            "{workload} {format}: generator or codec bytes drifted from the committed fixture"
        );

        // …and what they have produced since the fixture was blessed.
        assert_eq!(
            fnv1a(&committed),
            pinned_hash,
            "{workload} {format}: committed fixture does not match its pinned hash"
        );

        // The fixture decodes, and the header carries the right identity.
        let decoded = codec::load(&path)
            .unwrap_or_else(|e| panic!("{workload} {format}: fixture failed to load: {e}"));
        assert_eq!(decoded.name(), workload);
        assert_eq!(decoded.len(), FIXTURE_RECORDS);
    }
}
