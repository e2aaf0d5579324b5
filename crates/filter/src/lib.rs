#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # scap-filter
//!
//! A BPF-style packet-filter substrate, built from scratch:
//!
//! * a tcpdump-like expression language (`"tcp and port 80"`,
//!   `"src net 10.0.0.0/8 and not dst port 443"`) with lexer and
//!   recursive-descent parser ([`parse`]),
//! * a compiler ([`compile::compile`]) from the AST to classic-BPF register
//!   bytecode operating on raw frame bytes (absolute loads, the
//!   `ldx msh` IP-header-length idiom, conditional jumps),
//! * a verifier and an interpreter VM ([`bytecode::BpfProgram`]) with
//!   real BPF semantics (out-of-bounds load ⇒ no match),
//! * a direct AST evaluator ([`eval`]) used both to filter by flow key
//!   (for per-class stream cutoffs, where no packet bytes exist) and as a
//!   differential-testing oracle for the compiler.
//!
//! The paper's `scap_set_filter` and `scap_add_cutoff_class` are built on
//! this crate.

pub mod ast;
pub mod bytecode;
pub mod compile;
pub mod eval;
pub mod lexer;
pub mod parser;

pub use ast::{Expr, Primitive, ProtoKind, Qual};
pub use bytecode::{BpfProgram, Instr};
pub use eval::{matches_key, matches_parsed};

/// Errors from parsing or compiling a filter expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// The lexer met a character it does not understand.
    Lex {
        /// Byte position of the offending character.
        pos: usize,
        /// Human-readable description.
        what: String,
    },
    /// The parser met an unexpected token.
    Parse {
        /// Token index where parsing failed.
        pos: usize,
        /// Human-readable description.
        what: String,
    },
    /// The compiled program failed verification.
    Verify(String),
}

impl core::fmt::Display for FilterError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FilterError::Lex { pos, what } => write!(f, "lex error at {pos}: {what}"),
            FilterError::Parse { pos, what } => write!(f, "parse error at {pos}: {what}"),
            FilterError::Verify(s) => write!(f, "verification failed: {s}"),
        }
    }
}

impl std::error::Error for FilterError {}

/// Parse a filter expression into an AST.
///
/// An empty (or all-whitespace) expression parses to the match-everything
/// filter, mirroring libpcap.
pub fn parse(expr: &str) -> Result<Expr, FilterError> {
    let tokens = lexer::lex(expr)?;
    parser::parse_tokens(&tokens)
}

/// A compiled filter: the AST (for flow-key matching) plus the verified
/// BPF program (for frame matching). The source expression is retained
/// so filters can be serialized into checkpoints and recompiled on
/// restore.
#[derive(Debug, Clone)]
pub struct Filter {
    source: String,
    expr: Expr,
    program: BpfProgram,
}

impl Filter {
    /// Parse and compile `expr`.
    pub fn new(expr: &str) -> Result<Self, FilterError> {
        let ast = parse(expr)?;
        let program = compile::compile(&ast)?;
        Ok(Filter {
            source: expr.to_string(),
            expr: ast,
            program,
        })
    }

    /// The match-everything filter.
    pub fn match_all() -> Self {
        Filter::new("").expect("empty filter always compiles")
    }

    /// The source expression this filter was compiled from (empty string
    /// for the match-everything filter). `Filter::new(f.source())`
    /// reproduces an equivalent filter.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Run the BPF program over a raw frame.
    pub fn matches_frame(&self, frame: &[u8]) -> bool {
        self.program.run(frame) != 0
    }

    /// Match a flow key directly (used for stream-class filters).
    pub fn matches_key(&self, key: &scap_wire::FlowKey) -> bool {
        eval::matches_key(&self.expr, key)
    }

    /// The underlying AST.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// The compiled program.
    pub fn program(&self) -> &BpfProgram {
        &self.program
    }

    /// The union of two filters: matches whatever either matches.
    /// Used when multiple applications share one capture (§5.6 of the
    /// paper: "keeps streams that match at least one of the filters").
    pub fn union(&self, other: &Filter) -> Result<Filter, FilterError> {
        // Either side empty means match-all: the union is match-all too,
        // and keeping the source empty preserves that round-trip.
        let source = if self.source.trim().is_empty() || other.source.trim().is_empty() {
            String::new()
        } else {
            format!("({}) or ({})", self.source, other.source)
        };
        let expr = Expr::or(self.expr.clone(), other.expr.clone());
        let program = compile::compile(&expr)?;
        Ok(Filter {
            source,
            expr,
            program,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scap_wire::{PacketBuilder, TcpFlags};

    fn http_frame() -> Vec<u8> {
        PacketBuilder::tcp_v4(
            [10, 0, 0, 1],
            [192, 168, 1, 9],
            43210,
            80,
            1,
            1,
            TcpFlags::ACK,
            b"GET /",
        )
    }

    #[test]
    fn end_to_end_filter_matches() {
        let f = Filter::new("tcp and dst port 80").unwrap();
        assert!(f.matches_frame(&http_frame()));
        let f2 = Filter::new("udp").unwrap();
        assert!(!f2.matches_frame(&http_frame()));
    }

    #[test]
    fn empty_filter_matches_everything() {
        let f = Filter::match_all();
        assert!(f.matches_frame(&http_frame()));
        assert!(f.matches_frame(&PacketBuilder::udp_v4(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            1,
            2,
            b""
        )));
    }

    #[test]
    fn key_and_frame_matching_agree() {
        let f = Filter::new("src net 10.0.0.0/8 and port 80").unwrap();
        let frame = http_frame();
        let parsed = scap_wire::parse_frame(&frame).unwrap();
        assert_eq!(f.matches_frame(&frame), f.matches_key(&parsed.key.unwrap()));
    }

    #[test]
    fn parse_error_is_reported() {
        assert!(Filter::new("tcp and and").is_err());
        assert!(Filter::new("port notanumber").is_err());
    }
}
