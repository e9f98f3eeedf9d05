//! Property tests for the [`TraceSource`] warm/measure split protocol:
//! whatever the split points — 0, full length, chunk-boundary multiples of
//! 8 Ki (± 1), or arbitrary positions — draining the regions of a split
//! source concatenates to exactly the unsplit source's record sequence, for
//! every implementation (materialized cursor, resumable generator stream,
//! and on-disk chunk reader).

use rescache_testutil::{check_cases, TestRng};
use rescache_trace::codec::TraceFileSource;
use rescache_trace::{spec, InstrRecord, TraceGenerator, TraceSource, CHUNK_RECORDS};

/// Drains the current region of `source` into `out`.
fn drain_region<S: TraceSource>(source: &mut S, out: &mut Vec<InstrRecord>) {
    loop {
        let chunk = source.next_chunk();
        if chunk.is_empty() {
            break;
        }
        out.extend_from_slice(chunk);
    }
}

/// A split plan: fence positions in increasing order, ending at the total.
fn split_plan(rng: &mut TestRng, total: usize) -> Vec<usize> {
    // Interesting split points the issue calls out explicitly, plus
    // arbitrary ones; sampled, sorted and deduplicated into a plan.
    let mut interesting = vec![
        0,
        1,
        total,
        total.saturating_sub(1),
        CHUNK_RECORDS.min(total),
        (CHUNK_RECORDS - 1).min(total),
        (CHUNK_RECORDS + 1).min(total),
        (2 * CHUNK_RECORDS).min(total),
    ];
    interesting.push(rng.below_usize(total + 1));
    interesting.push(rng.below_usize(total + 1));
    let mut plan: Vec<usize> = (0..3)
        .map(|_| interesting[rng.below_usize(interesting.len())])
        .collect();
    plan.push(total);
    plan.sort_unstable();
    plan.dedup();
    plan
}

/// Runs `source` through the plan's regions and checks the concatenation.
fn assert_split_equals_unsplit<S: TraceSource>(
    mut source: S,
    plan: &[usize],
    reference: &[InstrRecord],
    label: &str,
) {
    let mut records = Vec::with_capacity(reference.len());
    for at in plan {
        source.split_at(*at);
        drain_region(&mut source, &mut records);
        assert_eq!(
            source.position(),
            *at,
            "{label}: region must stop exactly at the fence {at} (plan {plan:?})"
        );
    }
    assert_eq!(
        records, reference,
        "{label}: split regions must concatenate to the unsplit sequence (plan {plan:?})"
    );
}

#[test]
fn split_regions_concatenate_to_the_unsplit_sequence() {
    // Lengths straddling one and two chunk boundaries, profiles covering
    // constant, multi-phase sequence and periodic schedules.
    let dir = std::env::temp_dir().join(format!("rescache-split-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let profiles = [spec::ammp(), spec::gcc(), spec::su2cor()];

    check_cases(24, |rng| {
        let profile = profiles[rng.below_usize(profiles.len())].clone();
        let total = match rng.below(3) {
            0 => rng.range_usize(1, 2 * CHUNK_RECORDS),
            1 => CHUNK_RECORDS * rng.range_usize(1, 3) + rng.below_usize(3) - 1,
            _ => rng.range_usize(2 * CHUNK_RECORDS, 3 * CHUNK_RECORDS),
        };
        let seed = rng.below(1 << 20);
        let generator = TraceGenerator::new(profile.clone(), seed);
        let reference = generator.generate(total);
        let plan = split_plan(rng, total);

        assert_split_equals_unsplit(
            reference.cursor(),
            &plan,
            reference.records(),
            &format!("cursor {}", profile.name),
        );
        assert_split_equals_unsplit(
            generator.stream(total),
            &plan,
            reference.records(),
            &format!("stream {}", profile.name),
        );

        let path = dir.join(format!("case-{seed}-{total}.rctrace"));
        rescache_trace::codec::save_trace(&path, &reference).expect("persist case");
        assert_split_equals_unsplit(
            TraceFileSource::open(&path, None).expect("open case"),
            &plan,
            reference.records(),
            &format!("file {}", profile.name),
        );
        std::fs::remove_file(&path).ok();
    });
    std::fs::remove_dir_all(&dir).ok();
}

/// The trait's whole-trace default: a source with no splits at all is the
/// degenerate single-region plan, pinned here so the property above can
/// never silently weaken.
#[test]
fn unsplit_sources_still_deliver_everything() {
    let generator = TraceGenerator::new(spec::swim(), 3);
    let n = CHUNK_RECORDS + 77;
    let reference = generator.generate(n);
    let mut stream = generator.stream(n);
    let mut records = Vec::new();
    drain_region(&mut stream, &mut records);
    assert_eq!(records, reference.records());
}
