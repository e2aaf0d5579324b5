#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-flow
//!
//! Flow tracking: the `stream_t` equivalent ([`StreamRecord`]) and the
//! kernel-side flow table (§5.2 of the paper).
//!
//! Structure follows the paper:
//!
//! * a hash table with a **randomized hash function chosen at
//!   initialization** (resisting algorithmic-complexity attacks on the
//!   table) maps canonical 5-tuples to records;
//! * records are allocated from **pre-allocated pools that grow on
//!   demand**, so the number of concurrently tracked streams has no fixed
//!   limit — the property Fig. 5 demonstrates against Libnids/Snort,
//!   whose static tables cap out at one million flows;
//! * an **access list** (intrusive LRU, constant-time touch) keeps active
//!   streams sorted by last access so inactivity expiration scans only
//!   the stale tail, and so "evict the oldest stream" under memory
//!   pressure is O(1);
//! * state that other layers keep per stream lives in the record's pool
//!   slot ([`FlowTable<S>`](FlowTable)), so the one hash probe that finds
//!   the record has found everything else about the stream;
//! * the open-addressed index under the table ([`GroupIndex`]: ctrl-tag
//!   groups, cached hashes, one payload per position) is its own module,
//!   and the NIC offload rule table is built on the same one.

pub mod index;
pub mod record;
pub mod table;

pub use index::GroupIndex;
pub use record::{DirCounters, DirStats, StreamErrors, StreamId, StreamRecord, StreamStatus};
pub use table::{FlowTable, FlowTableConfig, Lookup};

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::{FlowKey, Transport};

    #[test]
    fn crate_quickstart() {
        let mut t = FlowTable::new(FlowTableConfig::default(), 0xFEED);
        let key = FlowKey::new_v4([1, 1, 1, 1], [2, 2, 2, 2], 10, 20, Transport::Tcp);
        let l = t.lookup_or_insert(&key, 100).unwrap();
        assert!(l.created);
        let l2 = t.lookup_or_insert(&key.reversed(), 200).unwrap();
        assert!(!l2.created);
        assert_eq!(l.id, l2.id);
        assert_ne!(l.direction, l2.direction);
    }
}
