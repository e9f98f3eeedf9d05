//! Set-associative, subarray-structured, resizable cache hierarchy simulator.
//!
//! This crate is the cache substrate of the `rescache` workspace: it models
//! the L1 instruction cache, L1 data cache and unified L2 of the HPCA 2002
//! resizable-cache study, with the two *mechanisms* resizable caches rely on:
//!
//! * a **way-mask** (`enabled_ways`) that restricts lookups and fills to a
//!   subset of the associative ways (the selective-ways mechanism), and
//! * a **set-mask** (`enabled_sets`) that restricts the index to a power-of-
//!   two subset of the sets (the selective-sets mechanism), including the
//!   flush semantics the paper describes when set mappings change.
//!
//! *Which* mask values an organization offers and *when* they are applied is
//! policy, and lives in `rescache-core`.
//!
//! # Crate map
//!
//! * [`config`] — [`CacheConfig`] and derived geometry.
//! * [`cache`] — the resizable [`Cache`], its accesses and resize operations
//!   (sets are rows of one flat, packed frame buffer).
//! * [`stats`] — access and resize statistics, split per enabled geometry.
//! * [`mshr`] — miss-status holding registers for non-blocking caches.
//! * [`writeback`] — the write-back buffer.
//! * [`hierarchy`] — the two-level [`MemoryHierarchy`] with main memory.
//!
//! # Example
//!
//! ```
//! use rescache_cache::{Cache, CacheConfig};
//!
//! let mut cache = Cache::new(CacheConfig::l1_default(32 * 1024, 2)).unwrap();
//! assert!(!cache.access_read(0x1000).hit);      // cold miss
//! cache.fill(0x1000, false);
//! assert!(cache.access_read(0x1000).hit);       // now resident
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod hierarchy;
pub mod mshr;
pub mod stats;
pub mod writeback;

pub use cache::{AccessKind, AccessOutcome, Cache, Eviction, ResizeEffect};
pub use config::{CacheConfig, CacheConfigError};
pub use hierarchy::{
    AccessClass, AccessResult, HierarchyConfig, HierarchySnapshot, HierarchyStats, MemoryHierarchy,
};
pub use mshr::{MshrFile, MshrHit};
pub use stats::{CacheStats, GeometrySlice};
pub use writeback::WritebackBuffer;
