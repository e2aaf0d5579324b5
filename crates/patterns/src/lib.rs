#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-patterns
//!
//! Multi-pattern string matching for the pattern-matching workloads of the
//! paper (§6.5), built from scratch:
//!
//! * [`AhoCorasick`] — the classic Aho–Corasick automaton (trie + BFS
//!   failure links), converted to a dense DFA so the scan loop is one
//!   table lookup per input byte, exactly the structure Snort builds for
//!   its `content:` patterns;
//! * streaming state ([`MatcherState`]) that carries across chunk
//!   boundaries, so patterns spanning consecutive stream chunks are still
//!   found (this is what the paper's `overlap` parameter compensates for
//!   in packet-based delivery);
//! * [`ruleset`] — a Snort-rule `content:` extractor and a seeded
//!   generator that produces a 2,120-pattern "web attack" corpus shaped
//!   like the VRT rule set the paper uses.

pub mod automaton;
pub mod ruleset;

pub use automaton::{AhoCorasick, Match, MatcherState};
pub use ruleset::{builtin_web_patterns, extract_contents, generate_web_attack_patterns};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_level_quickstart() {
        let ac = AhoCorasick::new(&[b"he".to_vec(), b"she".to_vec(), b"hers".to_vec()], false);
        let matches: Vec<Match> = ac.find_all(b"ushers");
        // "she" ends at 4, "he" ends at 4, "hers" ends at 6.
        assert_eq!(matches.len(), 3);
    }
}
