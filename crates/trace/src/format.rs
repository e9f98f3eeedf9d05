//! The [`TraceFormat`]: which record-generation algorithm a trace's bits
//! came from, and how they are laid out on disk.
//!
//! Trace bytes are pinned artifacts: golden fixtures, on-disk store entries
//! and cross-process sweeps all assume that the same `(profile, seed,
//! length)` key always expands to the same records. Any change to the
//! sampled bits therefore has to be a deliberate *format version bump*, not
//! a silent behavioural drift.
//!
//! There is one format, v4. Its records are v3's: dependency distances come
//! from a fixed-point inverse-CDF table (see [`crate::ilp::DistanceSampler`])
//! and the instruction-mix draw compares one raw 64-bit draw against
//! fixed-point thresholds (see [`crate::InstructionMix::thresholds`]), so
//! generation performs no `f64` operation per record. On disk it is the
//! `RCTRACE4` container, which stores every record verbatim (see
//! [`crate::codec`]); v4 changed only the container. Files of the retired
//! v1–v3 formats are rejected by the codec with a typed error; store
//! entries are a regenerable cache, so nothing needs to read them.

use std::fmt;

/// The trace-format version (see the module documentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Table-driven dependency distances plus integer-threshold mix draws,
    /// persisted as 11 verbatim bytes per record.
    #[default]
    V4,
}

impl TraceFormat {
    /// The 8-byte file magic identifying this format on disk.
    pub const fn magic(self) -> [u8; 8] {
        *b"RCTRACE4"
    }

    /// Short tag used in file names and JSON records.
    pub const fn tag(self) -> &'static str {
        "v4"
    }

    /// File-name suffix of a trace-store entry in this format.
    pub const fn file_suffix(self) -> &'static str {
        ".v4.rctrace"
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
        assert_eq!(TraceFormat::default(), TraceFormat::V4);
        assert_eq!(TraceFormat::V4.to_string(), "v4");
    }

    #[test]
    fn magics_are_distinct_and_share_the_prefix() {
        // The magic shares the retired versions' prefix but never their
        // version digit, so an old file is told apart at its first 8 bytes.
        let magic = TraceFormat::V4.magic();
        assert_eq!(&magic[..7], b"RCTRACE");
        assert_ne!(&magic, b"RCTRACE1");
        assert_ne!(&magic, b"RCTRACE2");
        assert_ne!(&magic, b"RCTRACE3");
        assert!(TraceFormat::V4
            .file_suffix()
            .starts_with(&format!(".{}", TraceFormat::V4.tag())));
    }

    #[test]
    fn tags_round_trip() {
        // The tag, the Display form and the magic's version digit name the
        // same version, so a file name and its contents never disagree.
        let format = TraceFormat::V4;
        assert_eq!(format.to_string(), format.tag());
        assert_eq!(format.tag(), "v4");
        assert_eq!(format!("v{}", char::from(format.magic()[7])), format.tag());
    }
}
