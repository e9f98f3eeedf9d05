//! The [`TraceFormat`]: which record-generation algorithm a trace's bits
//! came from, and how they are laid out on disk.
//!
//! Trace bytes are pinned artifacts: golden fixtures, on-disk store entries
//! and cross-process sweeps all assume that the same `(profile, seed,
//! length)` key always expands to the same records. Any change to the
//! sampled bits therefore has to be a deliberate *format version bump*, not
//! a silent behavioural drift.
//!
//! There is one format, v3: dependency distances come from a fixed-point
//! inverse-CDF table (see [`crate::ilp::DistanceSampler`]) and the
//! instruction-mix draw compares one raw 64-bit draw against fixed-point
//! thresholds (see [`crate::InstructionMix::thresholds`]), so generation
//! performs no `f64` operation per record. On disk it is the `RCTRACE3`
//! container with delta-compressed chunks (see [`crate::codec`]). Files of
//! the retired v1/v2 formats are rejected by the codec with a typed error;
//! store entries are a regenerable cache, so nothing needs to read them.

use std::fmt;

/// The trace-format version (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Table-driven dependency distances plus integer-threshold mix draws,
    /// persisted as delta-compressed chunks.
    #[default]
    V3,
}

impl TraceFormat {
    /// The 8-byte file magic identifying this format on disk.
    pub const fn magic(self) -> [u8; 8] {
        *b"RCTRACE3"
    }

    /// Short tag used in file names and JSON records.
    pub const fn tag(self) -> &'static str {
        "v3"
    }

    /// File-name suffix of a trace-store entry in this format.
    pub const fn file_suffix(self) -> &'static str {
        ".v3.rctrace"
    }
}

impl fmt::Display for TraceFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_newest_format() {
        assert_eq!(TraceFormat::default(), TraceFormat::V3);
        assert_eq!(TraceFormat::V3.to_string(), "v3");
    }

    #[test]
    fn magics_are_distinct_and_share_the_prefix() {
        // The magic shares the retired versions' prefix but never their
        // version digit, so an old file is told apart at its first 8 bytes.
        let magic = TraceFormat::V3.magic();
        assert_eq!(&magic[..7], b"RCTRACE");
        assert_ne!(&magic, b"RCTRACE1");
        assert_ne!(&magic, b"RCTRACE2");
        assert!(TraceFormat::V3
            .file_suffix()
            .starts_with(&format!(".{}", TraceFormat::V3.tag())));
    }

    #[test]
    fn tags_round_trip() {
        // The tag, the Display form and the magic's version digit name the
        // same version, so a file name and its contents never disagree.
        let format = TraceFormat::V3;
        assert_eq!(format.to_string(), format.tag());
        assert_eq!(format.tag(), "v3");
        assert_eq!(format!("v{}", char::from(format.magic()[7])), format.tag());
    }
}
