//! Memory hierarchy and memory-ordering queues for the MSP reproduction.
//!
//! Table I of the paper fixes the memory subsystem shared by every machine:
//!
//! * 64 KB, 4-way instruction cache with a 1-cycle hit,
//! * 64 KB, 4-way data cache with a 4-cycle hit,
//! * 1 MB, 8-way unified L2 with a 16-cycle hit,
//! * 64-byte lines and a 380-cycle main-memory latency,
//! * a 48-entry load buffer, and either a single-level store queue (the
//!   baseline's 24 entries) or the **hierarchical store queue** of CPR/MSP
//!   (48 L1 entries backed by a 256-entry L2 store queue).
//!
//! This crate provides those components: [`Cache`], [`MemoryHierarchy`],
//! [`LoadQueue`], [`SimpleStoreQueue`] and [`HierarchicalStoreQueue`]
//! (both behind the [`StoreQueue`] trait).
//!
//! ```
//! use msp_mem::{MemoryHierarchy, MemoryConfig};
//! let mut mem = MemoryHierarchy::new(MemoryConfig::paper());
//! let cold = mem.load_latency(0x8000);
//! let warm = mem.load_latency(0x8000);
//! assert!(cold > warm, "second access hits the D-cache");
//! assert_eq!(warm, 4);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod hierarchy;
mod loadqueue;
mod storequeue;

pub use cache::{Cache, CacheConfig};
pub use hierarchy::{MemoryConfig, MemoryHierarchy};
pub use loadqueue::LoadQueue;
pub use storequeue::{
    ForwardResult, HierarchicalStoreQueue, SimpleStoreQueue, StoreQueue, StoreQueueEntry,
};
