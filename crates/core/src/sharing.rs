//! The generalized capture configuration for a shared capture (§5.6 of
//! the paper).
//!
//! When several monitoring applications run on the same sensor, Scap
//! performs flow tracking and stream reassembly **once**, in the kernel.
//! Because applications have different requirements, the kernel runs a
//! *generalized* configuration — the union of all BPF filters, the
//! largest of all cutoffs, packet records if anyone needs them — and the
//! user-level side applies each application's own restrictions when it
//! dispatches events. [`union_requirements`] computes that configuration;
//! [`crate::tenant::TenantEngine`] is the user-level side.

use crate::config::{PriorityPolicy, ScapConfig};
use scap_filter::{Filter, FilterError};

/// One subscriber's capture requirements — the filter/cutoff/priority
/// triple a tenant brings to the capture, independent of the
/// application code behind it.
#[derive(Debug, Clone, Default)]
pub struct Requirement {
    /// Stream filter; `None` = all streams.
    pub filter: Option<Filter>,
    /// Per-stream cutoff; `None` = unlimited.
    pub cutoff: Option<u64>,
    /// PPL priority requested for the subscriber's streams (0 = lowest).
    pub priority: u8,
}

/// The generalized kernel configuration for a set of requirements:
/// union of filters, maximum cutoff, packet records if anyone needs
/// them (the "best effort approach to satisfy all requirements"). The
/// result is a pure function of the requirement *set* — merging in any
/// order yields the same configuration.
pub fn union_requirements(
    mut base: ScapConfig,
    reqs: &[Requirement],
    need_pkts: bool,
) -> Result<ScapConfig, FilterError> {
    // Filters: if any subscriber wants everything, so does the kernel;
    // otherwise the union of the individual filters.
    let mut union: Option<Filter> = None;
    let mut unrestricted = reqs.is_empty();
    for req in reqs {
        match &req.filter {
            None => {
                unrestricted = true;
                break;
            }
            Some(f) => {
                union = Some(match union {
                    None => f.clone(),
                    Some(u) => u.union(f)?,
                });
            }
        }
    }
    base.filter = if unrestricted { None } else { union };

    // Cutoff: the largest requirement wins; any unlimited one ⇒ unlimited.
    let mut cutoff: Option<u64> = Some(0);
    for req in reqs {
        cutoff = match (cutoff, req.cutoff) {
            (None, _) | (_, None) => None,
            (Some(a), Some(b)) => Some(a.max(b)),
        };
    }
    // The generalized cutoff must satisfy every subscriber in both
    // directions: stale per-direction or per-class cutoffs on the base
    // config could deliver less than the largest requirement.
    base.cutoff.generalize_to(cutoff);
    base.need_pkts = need_pkts;
    // Priorities are merged only when some subscriber states one: a set
    // of priority-0 requirements leaves the base policy — and its PPL
    // watermark count — untouched.
    if reqs.iter().any(|r| r.priority > 0) {
        base.priorities = union_priorities(reqs);
        base.ppl.num_priorities = base.priorities.levels();
    }
    Ok(base)
}

/// Merge per-subscriber priorities into one canonical
/// [`PriorityPolicy`]. Classes are sorted by priority descending, then
/// filter source, so the policy is independent of attach order and
/// first-match-wins resolves overlapping filters toward the *higher*
/// priority (the "best effort" direction: nobody's traffic gets shed
/// earlier because somebody else also asked for it). Unfiltered
/// subscribers contribute no class — their streams take the default
/// priority 0, which PPL sheds first.
pub fn union_priorities(reqs: &[Requirement]) -> PriorityPolicy {
    let mut classes: Vec<(Filter, u8)> = reqs
        .iter()
        .filter(|r| r.priority > 0)
        .filter_map(|r| r.filter.clone().map(|f| (f, r.priority)))
        .collect();
    classes.sort_by(|(fa, pa), (fb, pb)| pb.cmp(pa).then_with(|| fa.source().cmp(fb.source())));
    classes.dedup_by(|(fa, pa), (fb, pb)| fa.source() == fb.source() && pa == pb);
    PriorityPolicy { classes }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_config() -> ScapConfig {
        ScapConfig {
            inactivity_timeout_ns: 500_000_000,
            ..ScapConfig::default()
        }
    }

    fn req(filter: Option<&str>, cutoff: Option<u64>) -> Requirement {
        Requirement {
            filter: filter.map(|f| Filter::new(f).unwrap()),
            cutoff,
            priority: 0,
        }
    }

    #[test]
    fn union_generalizes_requirements() {
        let reqs = [
            req(Some("tcp"), Some(0)),
            req(Some("port 80"), Some(10_000)),
        ];
        let cfg = union_requirements(base_config(), &reqs, false).unwrap();
        // Cutoff: the largest of (0, 10_000).
        assert_eq!(cfg.cutoff.default, Some(10_000));
        // Filter: the union matches both tcp and port-80 traffic.
        let f = cfg.filter.expect("union filter");
        let tcp_frame = scap_wire::PacketBuilder::tcp_v4(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            9,
            9999,
            1,
            1,
            scap_wire::TcpFlags::ACK,
            b"",
        );
        let udp53 = scap_wire::PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 53, 53, b"");
        let udp80 = scap_wire::PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 80, 9, b"");
        assert!(f.matches_frame(&tcp_frame));
        assert!(f.matches_frame(&udp80));
        assert!(!f.matches_frame(&udp53));

        // Any unlimited subscriber generalizes to "no cutoff, no filter".
        let reqs2 = [req(None, None), req(Some("port 80"), Some(10))];
        let cfg2 = union_requirements(base_config(), &reqs2, false).unwrap();
        assert!(cfg2.filter.is_none());
        assert_eq!(cfg2.cutoff.default, None);
    }

    #[test]
    fn union_of_no_requirements_records_streams_only() {
        let cfg = union_requirements(base_config(), &[], false).unwrap();
        // No subscribers: every stream is visible (stream bookkeeping is
        // nearly free) but no payload is collected and no packet records
        // are produced.
        assert!(cfg.filter.is_none());
        assert_eq!(cfg.cutoff.default, Some(0));
        assert!(!cfg.need_pkts);
    }

    #[test]
    fn union_of_one_unfiltered_requirement_keeps_its_cutoff() {
        let cfg = union_requirements(base_config(), &[req(None, Some(4096))], true).unwrap();
        assert!(cfg.filter.is_none());
        assert_eq!(cfg.cutoff.default, Some(4096));
        // Packet records requested by the caller pass through.
        assert!(cfg.need_pkts);
    }

    #[test]
    fn union_overrides_conflicting_base_cutoff_directions() {
        // A base config carrying tighter per-direction and per-class
        // cutoffs must not leak into the generalized configuration — the
        // largest requirement wins in *both* directions.
        let mut base = base_config();
        base.cutoff.per_direction = [Some(64), Some(4)];
        base.cutoff
            .classes
            .push((Filter::new("port 80").unwrap(), 16));
        let reqs = [
            req(Some("tcp"), Some(0)),
            req(Some("port 80"), Some(10_000)),
        ];
        let cfg = union_requirements(base, &reqs, false).unwrap();
        assert_eq!(cfg.cutoff.default, Some(10_000));
        assert_eq!(cfg.cutoff.per_direction, [None, None]);
        assert!(cfg.cutoff.classes.is_empty());
        // The effective cutoff must now be the generalized one both ways.
        let key = scap_wire::parse_frame(&scap_wire::PacketBuilder::tcp_v4(
            [1, 1, 1, 1],
            [2, 2, 2, 2],
            9,
            80,
            1,
            1,
            scap_wire::TcpFlags::ACK,
            b"",
        ))
        .unwrap()
        .key
        .unwrap();
        assert_eq!(cfg.cutoff.effective(&key), [Some(10_000), Some(10_000)]);
    }

    mod union_properties {
        use super::super::{union_priorities, union_requirements, Requirement};
        use crate::config::ScapConfig;
        use proptest::prelude::*;
        use scap_filter::Filter;

        /// The BPF vocabulary the generator draws from. `None` is the
        /// unrestricted subscriber.
        const FILTERS: [Option<&str>; 6] = [
            None,
            Some("tcp"),
            Some("udp"),
            Some("port 80"),
            Some("port 443"),
            Some("tcp and port 80"),
        ];

        /// Raw generated shape: (filter index, cutoff present, cutoff,
        /// priority). The offline proptest shim has no `prop_map`, so
        /// requirements are built from raw tuples inside each property.
        fn reqs_from(raw: &[(usize, bool, u64, u8)]) -> Vec<Requirement> {
            raw.iter()
                .map(|&(f, has_cutoff, cutoff, priority)| Requirement {
                    filter: FILTERS[f % FILTERS.len()].map(|s| Filter::new(s).unwrap()),
                    cutoff: has_cutoff.then_some(cutoff),
                    priority,
                })
                .collect()
        }

        /// Probe frames covering every corner of the filter vocabulary.
        fn probes() -> Vec<Vec<u8>> {
            use scap_wire::{PacketBuilder, TcpFlags};
            vec![
                PacketBuilder::tcp_v4([1, 1, 1, 1], [2, 2, 2, 2], 9, 80, 1, 1, TcpFlags::ACK, b""),
                PacketBuilder::tcp_v4([1, 1, 1, 1], [2, 2, 2, 2], 443, 9, 1, 1, TcpFlags::ACK, b""),
                PacketBuilder::tcp_v4(
                    [3, 3, 3, 3],
                    [4, 4, 4, 4],
                    1234,
                    5678,
                    1,
                    1,
                    TcpFlags::ACK,
                    b"",
                ),
                PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 80, 9, b""),
                PacketBuilder::udp_v4([1, 1, 1, 1], [2, 2, 2, 2], 53, 53, b""),
            ]
        }

        /// The observable face of a generalized config: what the kernel
        /// would accept, collect, and prioritize.
        fn fingerprint(cfg: &ScapConfig) -> (Vec<bool>, Option<u64>, Vec<Option<u8>>, u8) {
            let accepts: Vec<bool> = probes()
                .iter()
                .map(|p| cfg.filter.as_ref().is_none_or(|f| f.matches_frame(p)))
                .collect();
            let prios: Vec<Option<u8>> = probes()
                .iter()
                .map(|p| {
                    scap_wire::parse_frame(p)
                        .ok()
                        .and_then(|f| f.key)
                        .map(|k| cfg.priorities.for_key(&k))
                })
                .collect();
            (accepts, cfg.cutoff.default, prios, cfg.ppl.num_priorities)
        }

        proptest! {
            /// Commutativity: merging N subscriber configs in any order
            /// yields the same effective capture config.
            #[test]
            fn union_is_order_invariant(
                raw in proptest::collection::vec(
                    (0usize..FILTERS.len(), any::<bool>(), 0u64..100_000, 0u8..4), 1..6),
                rot in 0usize..6,
                swap in (0usize..6, 0usize..6),
            ) {
                let reqs = reqs_from(&raw);
                let base = ScapConfig::default;
                let merged = union_requirements(base(), &reqs, false).unwrap();
                let mut shuffled = reqs.clone();
                let n = shuffled.len();
                shuffled.rotate_left(rot % n);
                let (i, j) = (swap.0 % n, swap.1 % n);
                shuffled.swap(i, j);
                let remerged = union_requirements(base(), &shuffled, false).unwrap();
                prop_assert_eq!(fingerprint(&merged), fingerprint(&remerged));
            }

            /// Associativity: merging a subscriber set in groups — the
            /// union filter of (A ∪ B) ∪ C against A ∪ (B ∪ C) — matches
            /// the flat merge on every probe, and the scalar folds (max
            /// cutoff, priority policy) agree with a manual fold.
            #[test]
            fn union_is_associative(
                raw in proptest::collection::vec(
                    (0usize..FILTERS.len(), any::<bool>(), 0u64..100_000, 0u8..4), 3..6),
            ) {
                let reqs = reqs_from(&raw);
                let base = ScapConfig::default;
                let flat = union_requirements(base(), &reqs, false).unwrap();
                // Grouped merge: generalize a prefix, then union the
                // remaining requirements on top of the already-merged
                // filter/cutoff (what incremental attach does).
                for split in 1..reqs.len() {
                    let left = union_requirements(base(), &reqs[..split], false).unwrap();
                    let mut grouped: Vec<Requirement> = reqs[split..].to_vec();
                    grouped.push(Requirement {
                        filter: left.filter.clone(),
                        cutoff: left.cutoff.default,
                        priority: 0,
                    });
                    let mut regrouped = union_requirements(base(), &grouped, false).unwrap();
                    // Priorities fold over the raw set, not the grouped
                    // aggregate (the aggregate's classes are not a single
                    // requirement); recompute them from the full set.
                    regrouped.priorities = union_priorities(&reqs);
                    regrouped.ppl.num_priorities = regrouped.priorities.levels();
                    let mut flat_cmp = fingerprint(&flat);
                    let mut re_cmp = fingerprint(&regrouped);
                    // An all-priority-0 set leaves base priorities alone
                    // (by design); normalize that away for comparison.
                    if reqs.iter().all(|r| r.priority == 0) {
                        flat_cmp.2 = vec![];
                        re_cmp.2 = vec![];
                        flat_cmp.3 = 0;
                        re_cmp.3 = 0;
                    }
                    prop_assert_eq!(flat_cmp, re_cmp);
                }
            }

            /// The merged cutoff is exactly the max-fold (None
            /// absorbing), and the merged priority policy gives every
            /// probe stream the highest priority any matching
            /// subscriber asked for.
            #[test]
            fn union_cutoff_and_priority_semantics(
                raw in proptest::collection::vec(
                    (0usize..FILTERS.len(), any::<bool>(), 0u64..100_000, 0u8..4), 1..6),
            ) {
                let reqs = reqs_from(&raw);
                let merged = union_requirements(ScapConfig::default(), &reqs, false).unwrap();
                let expect_cutoff = reqs.iter().try_fold(0u64, |acc, r| {
                    r.cutoff.map(|c| acc.max(c))
                });
                prop_assert_eq!(merged.cutoff.default, expect_cutoff);
                if reqs.iter().any(|r| r.priority > 0) {
                    for p in probes() {
                        let Some(key) = scap_wire::parse_frame(&p).ok().and_then(|f| f.key)
                        else {
                            continue;
                        };
                        let expected = reqs
                            .iter()
                            .filter(|r| {
                                r.priority > 0
                                    && r.filter.as_ref().is_some_and(|f| {
                                        f.matches_key(&key) || f.matches_key(&key.reversed())
                                    })
                            })
                            .map(|r| r.priority)
                            .max()
                            .unwrap_or(0);
                        prop_assert_eq!(merged.priorities.for_key(&key), expected);
                    }
                }
            }
        }
    }
}
