//! Trace record types: one [`InstrRecord`] per dynamic instruction.

/// The operation class of a dynamic instruction.
///
/// Memory operations carry the effective byte address of their access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// An integer ALU operation (single-cycle).
    Int,
    /// A floating-point operation (multi-cycle execution latency).
    Fp,
    /// A load from the given effective address.
    Load(u64),
    /// A store to the given effective address.
    Store(u64),
    /// A conditional branch with its resolved direction.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
    },
}

impl Op {
    /// Returns `true` if this operation accesses the data cache.
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_))
    }

    /// Returns `true` if this operation is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Op::Load(_))
    }

    /// Returns `true` if this operation is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Op::Store(_))
    }

    /// Returns `true` if this operation is a conditional branch.
    pub fn is_branch(&self) -> bool {
        matches!(self, Op::Branch { .. })
    }

    /// Returns the effective data address, if this is a memory operation.
    pub fn address(&self) -> Option<u64> {
        match self {
            Op::Load(a) | Op::Store(a) => Some(*a),
            _ => None,
        }
    }
}

/// Raw operation-class tags of the packed record encoding.
///
/// These are the values [`InstrRecord::kind_tag`] returns and the on-disk
/// codec stores. The engines in `rescache-cpu` dispatch on the tag directly
/// instead of re-materializing an [`Op`], so the ordering is part of the
/// stable encoding: ALU classes
/// first (`INT`, `FP`), then memory (`LOAD`, `STORE`), then branches with the
/// taken direction in the low bit.
pub mod kind {
    /// An integer ALU operation.
    pub const INT: u8 = 0;
    /// A floating-point operation.
    pub const FP: u8 = 1;
    /// A load; the record's address lane carries the effective address.
    pub const LOAD: u8 = 2;
    /// A store; the record's address lane carries the effective address.
    pub const STORE: u8 = 3;
    /// A conditional branch resolved not-taken.
    pub const BRANCH_NOT_TAKEN: u8 = 4;
    /// A conditional branch resolved taken.
    pub const BRANCH_TAKEN: u8 = 5;
}

use kind::{
    BRANCH_NOT_TAKEN as KIND_BRANCH_NOT_TAKEN, BRANCH_TAKEN as KIND_BRANCH_TAKEN, FP as KIND_FP,
    INT as KIND_INT, LOAD as KIND_LOAD, STORE as KIND_STORE,
};

/// A single dynamic instruction in a trace.
///
/// Dependency distances point backwards in the dynamic instruction stream:
/// `dep1 == 3` means "this instruction consumes the result produced three
/// instructions earlier". A distance of `0` means "no register dependency".
/// These distances are what the out-of-order model uses to bound the
/// instruction-level parallelism it can extract.
///
/// The record is packed into 12 bytes (32-bit PC and effective address, one
/// tag byte, two dependency bytes): a paper-length experiment streams
/// millions of records through the engines once per cache configuration, so
/// record size is directly memory bandwidth on the simulation hot path. The
/// generated workloads place code below `0x1000_0000` and data below
/// `0x8000_0000`, so 32-bit addresses lose nothing; the constructors assert
/// this rather than truncate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstrRecord {
    pc: u32,
    addr: u32,
    kind: u8,
    dep1: u8,
    dep2: u8,
}

impl InstrRecord {
    /// Creates a record with no register dependencies.
    ///
    /// # Panics
    ///
    /// Panics if the PC or a memory address exceeds 32 bits.
    pub fn new(pc: u64, op: Op) -> Self {
        Self::with_deps(pc, op, 0, 0)
    }

    /// Creates a record with the given dependency distances.
    ///
    /// # Panics
    ///
    /// Panics if the PC or a memory address exceeds 32 bits.
    pub fn with_deps(pc: u64, op: Op, dep1: u8, dep2: u8) -> Self {
        assert!(pc <= u64::from(u32::MAX), "pc {pc:#x} exceeds 32 bits");
        let (kind, addr) = match op {
            Op::Int => (KIND_INT, 0),
            Op::Fp => (KIND_FP, 0),
            Op::Load(a) => (KIND_LOAD, a),
            Op::Store(a) => (KIND_STORE, a),
            Op::Branch { taken: false } => (KIND_BRANCH_NOT_TAKEN, 0),
            Op::Branch { taken: true } => (KIND_BRANCH_TAKEN, 0),
        };
        assert!(
            addr <= u64::from(u32::MAX),
            "address {addr:#x} exceeds 32 bits"
        );
        Self {
            pc: pc as u32,
            addr: addr as u32,
            kind,
            dep1,
            dep2,
        }
    }

    /// Program counter (byte address) of the instruction.
    #[inline(always)]
    pub fn pc(&self) -> u64 {
        u64::from(self.pc)
    }

    /// Operation class, including memory addresses and branch outcomes.
    #[inline(always)]
    pub fn op(&self) -> Op {
        match self.kind {
            KIND_INT => Op::Int,
            KIND_FP => Op::Fp,
            KIND_LOAD => Op::Load(u64::from(self.addr)),
            KIND_STORE => Op::Store(u64::from(self.addr)),
            KIND_BRANCH_NOT_TAKEN => Op::Branch { taken: false },
            _ => Op::Branch { taken: true },
        }
    }

    /// Raw operation-class tag (one of the [`kind`] constants).
    ///
    /// The engines dispatch on this byte directly: it carries the same
    /// class as [`InstrRecord::op`] without materializing an [`Op`].
    #[inline(always)]
    pub fn kind_tag(&self) -> u8 {
        self.kind
    }

    /// Program counter as the packed 32-bit lane value.
    #[inline(always)]
    pub fn pc_raw(&self) -> u32 {
        self.pc
    }

    /// Effective data address as the packed 32-bit lane value (0 for
    /// non-memory operations).
    #[inline(always)]
    pub fn addr_raw(&self) -> u32 {
        self.addr
    }

    /// Distance (in dynamic instructions) to the first source producer;
    /// 0 = none.
    #[inline(always)]
    pub fn dep1(&self) -> u8 {
        self.dep1
    }

    /// Distance (in dynamic instructions) to the second source producer;
    /// 0 = none.
    #[inline(always)]
    pub fn dep2(&self) -> u8 {
        self.dep2
    }

    /// Assembles a record from lane values the caller already validated.
    ///
    /// The codec's decode loop rejects bad operation tags as it reads each
    /// record, so re-checking here would put a dead branch on the
    /// per-record path; the debug assertion keeps the contract honest under
    /// `cargo test`.
    #[inline(always)]
    pub(crate) fn from_lanes_validated(pc: u32, addr: u32, kind: u8, dep1: u8, dep2: u8) -> Self {
        debug_assert!(kind <= KIND_BRANCH_TAKEN, "unvalidated tag {kind}");
        Self {
            pc,
            addr,
            kind,
            dep1,
            dep2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_classification() {
        assert!(Op::Load(0x100).is_mem());
        assert!(Op::Store(0x100).is_mem());
        assert!(!Op::Int.is_mem());
        assert!(Op::Load(4).is_load());
        assert!(!Op::Load(4).is_store());
        assert!(Op::Store(4).is_store());
        assert!(Op::Branch { taken: true }.is_branch());
        assert!(!Op::Fp.is_branch());
    }

    #[test]
    fn op_address_extraction() {
        assert_eq!(Op::Load(0xdead).address(), Some(0xdead));
        assert_eq!(Op::Store(0xbeef).address(), Some(0xbeef));
        assert_eq!(Op::Int.address(), None);
        assert_eq!(Op::Branch { taken: false }.address(), None);
    }

    #[test]
    fn record_constructors() {
        let r = InstrRecord::new(0x400, Op::Int);
        assert_eq!(r.dep1, 0);
        assert_eq!(r.dep2, 0);
        let r = InstrRecord::with_deps(0x404, Op::Fp, 2, 5);
        assert_eq!(r.dep1, 2);
        assert_eq!(r.dep2, 5);
        assert_eq!(r.pc, 0x404);
    }

    #[test]
    fn lane_accessors_agree_with_op() {
        let records = [
            (InstrRecord::new(0x400, Op::Int), kind::INT, 0),
            (InstrRecord::new(0x404, Op::Fp), kind::FP, 0),
            (
                InstrRecord::new(0x408, Op::Load(0x9000)),
                kind::LOAD,
                0x9000,
            ),
            (
                InstrRecord::new(0x40c, Op::Store(0x9008)),
                kind::STORE,
                0x9008,
            ),
            (
                InstrRecord::new(0x410, Op::Branch { taken: false }),
                kind::BRANCH_NOT_TAKEN,
                0,
            ),
            (
                InstrRecord::new(0x414, Op::Branch { taken: true }),
                kind::BRANCH_TAKEN,
                0,
            ),
        ];
        for (rec, tag, addr) in records {
            assert_eq!(rec.kind_tag(), tag);
            assert_eq!(u64::from(rec.addr_raw()), addr);
            assert_eq!(u64::from(rec.pc_raw()), rec.pc());
            assert_eq!(rec.op().address().unwrap_or(0), addr);
        }
    }
}
