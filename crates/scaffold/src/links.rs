//! Contig link generation (§4.6).
//!
//! Splints and spans are individually noisy; links aggregate them per
//! contig-end pair in a distributed hash table (keys: contig pairs,
//! values: splint/span tallies — built with aggregating stores and merged
//! by each pair's owner), and a
//! link survives only with sufficient supporting evidence. Each rank then
//! assesses its local buckets.

use crate::splints::{Span, Splint};
use hipmer_contig::ContigEnd;
use hipmer_pgas::stats::merge_ranks;
use hipmer_pgas::{DistHashMap, Exchange, PhaseReport, Team};

/// Normalized key for an unordered pair of contig ends.
pub type EndKey = ((u32, ContigEnd), (u32, ContigEnd));

/// Normalize an end pair into a canonical key order.
pub fn end_key(a: (u32, ContigEnd), b: (u32, ContigEnd)) -> EndKey {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// What kind of evidence established a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkKind {
    /// Supported by reads aligning across both ends (negative gaps).
    Splint,
    /// Supported by mate pairs.
    Span,
}

/// Aggregated tallies for one end pair.
#[derive(Clone, Copy, Debug, Default)]
struct LinkAgg {
    splint_count: u32,
    splint_gap_sum: i64,
    span_count: u32,
    span_gap_sum: i64,
}

impl LinkAgg {
    fn merge(&mut self, o: LinkAgg) {
        self.splint_count += o.splint_count;
        self.splint_gap_sum += o.splint_gap_sum;
        self.span_count += o.span_count;
        self.span_gap_sum += o.span_gap_sum;
    }
}

/// A surviving link between two contig ends.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Link {
    /// The normalized end pair.
    pub key: EndKey,
    /// Mean estimated gap (negative = overlap).
    pub gap: i64,
    /// Number of supporting observations.
    pub support: u32,
    /// Dominant evidence kind (splints outrank spans — they are direct).
    pub kind: LinkKind,
}

/// Minimum splint observations for a splint link: one observation may be
/// a chimeric read, two independent ones agree (the count ≥ 2 convention
/// of the k-mer filter, applied to links).
const MIN_SPLINTS: u32 = 2;
/// Minimum span observations for a span link (as [`MIN_SPLINTS`]).
const MIN_SPANS: u32 = 2;

/// Aggregate splints and spans into links.
pub fn generate_links(team: &Team, splints: &[Splint], spans: &[Span]) -> (Vec<Link>, PhaseReport) {
    let table: DistHashMap<EndKey, LinkAgg> = DistHashMap::new(*team.topo());

    let mail = Exchange::for_table(&table);
    let mut stats = team.run_supersteps("scaffold/links/aggregate", |ctx, step| {
        let rank = ctx.rank;
        mail.deliver(rank, step, |_, tallies| {
            table.merge_batch(rank, tallies.drain(..), LinkAgg::merge)
        });
        // A rank's splints, then its spans.
        let splints = &splints[ctx.chunk(splints.len())];
        let spans = &spans[ctx.chunk(spans.len())];
        mail.send(ctx, step, splints.len() + spans.len(), |ctx, i, post| {
            ctx.stats.compute(1);
            let (ends, tally) = if let Some(s) = splints.get(i) {
                let tally = LinkAgg {
                    splint_count: 1,
                    splint_gap_sum: s.gap,
                    ..LinkAgg::default()
                };
                (s.ends, tally)
            } else {
                let s = &spans[i - splints.len()];
                let tally = LinkAgg {
                    span_count: 1,
                    span_gap_sum: s.gap,
                    ..LinkAgg::default()
                };
                (s.ends, tally)
            };
            let key = end_key(ends[0], ends[1]);
            post.push(ctx, table.owner(&key), (key, tally));
        })
    });
    table.drain_service_into(&mut stats);
    let table = table.freeze();

    // Assess local buckets.
    let (link_lists, stats_b) = team.run_named("scaffold/links/assess", |ctx| {
        (table.scan_local(ctx)).fold(Vec::<Link>::new(), |mut out, (key, agg)| {
            if agg.splint_count >= MIN_SPLINTS {
                out.push(Link {
                    key: *key,
                    gap: agg.splint_gap_sum / agg.splint_count as i64,
                    support: agg.splint_count,
                    kind: LinkKind::Splint,
                });
            } else if agg.span_count >= MIN_SPANS {
                out.push(Link {
                    key: *key,
                    gap: agg.span_gap_sum / agg.span_count as i64,
                    support: agg.span_count,
                    kind: LinkKind::Span,
                });
            }
            out
        })
    });
    merge_ranks(&mut stats, &stats_b);
    let mut links: Vec<Link> = link_lists.into_iter().flatten().collect();
    links.sort_by_key(|l| l.key);
    (
        links,
        PhaseReport::new("scaffold/links", *team.topo(), stats),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipmer_pgas::Topology;

    fn splint(c1: u32, e1: ContigEnd, c2: u32, e2: ContigEnd, gap: i64) -> Splint {
        Splint {
            ends: [(c1, e1), (c2, e2)],
            gap,
        }
    }

    fn span(c1: u32, e1: ContigEnd, c2: u32, e2: ContigEnd, gap: i64) -> Span {
        Span {
            ends: [(c1, e1), (c2, e2)],
            gap,
        }
    }

    #[test]
    fn links_require_min_support() {
        let team = Team::new(Topology::new(4, 2));
        let splints = vec![
            splint(0, ContigEnd::Right, 1, ContigEnd::Left, -19),
            splint(1, ContigEnd::Left, 0, ContigEnd::Right, -19), // same, reversed order
            splint(2, ContigEnd::Right, 3, ContigEnd::Left, -19), // only once
        ];
        let (links, _) = generate_links(&team, &splints, &[]);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].support, 2);
        assert_eq!(links[0].kind, LinkKind::Splint);
        assert_eq!(links[0].gap, -19);
        assert_eq!(
            links[0].key,
            end_key((0, ContigEnd::Right), (1, ContigEnd::Left))
        );
    }

    #[test]
    fn span_links_average_gaps() {
        let team = Team::new(Topology::new(2, 2));
        let spans = vec![
            span(5, ContigEnd::Right, 6, ContigEnd::Left, 90),
            span(5, ContigEnd::Right, 6, ContigEnd::Left, 110),
            span(5, ContigEnd::Right, 6, ContigEnd::Left, 100),
        ];
        let (links, _) = generate_links(&team, &[], &spans);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].gap, 100);
        assert_eq!(links[0].support, 3);
        assert_eq!(links[0].kind, LinkKind::Span);
    }

    #[test]
    fn splints_outrank_spans_for_same_pair() {
        let team = Team::new(Topology::new(2, 2));
        let splints = vec![
            splint(0, ContigEnd::Right, 1, ContigEnd::Left, -19),
            splint(0, ContigEnd::Right, 1, ContigEnd::Left, -19),
        ];
        let spans = vec![
            span(0, ContigEnd::Right, 1, ContigEnd::Left, 40),
            span(0, ContigEnd::Right, 1, ContigEnd::Left, 60),
        ];
        let (links, _) = generate_links(&team, &splints, &spans);
        assert_eq!(links.len(), 1);
        assert_eq!(links[0].kind, LinkKind::Splint);
        assert_eq!(links[0].gap, -19);
    }

    #[test]
    fn deterministic_across_rank_counts() {
        let splints: Vec<Splint> = (0..50)
            .flat_map(|i| vec![splint(i, ContigEnd::Right, i + 1, ContigEnd::Left, -10); 3])
            .collect();
        let run = |ranks| {
            let team = Team::new(Topology::new(ranks, 4));
            generate_links(&team, &splints, &[]).0
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn end_key_normalizes() {
        let a = (3u32, ContigEnd::Left);
        let b = (1u32, ContigEnd::Right);
        assert_eq!(end_key(a, b), end_key(b, a));
        assert_eq!(ContigEnd::Left.other(), ContigEnd::Right);
    }
}
