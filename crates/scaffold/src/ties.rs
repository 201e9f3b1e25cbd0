//! Ordering and orientation of contigs (§4.7).
//!
//! Links are consolidated into *ties* between contigs; the tie graph is
//! traversed by selecting seed contigs in order of decreasing length
//! ("this heuristic tries to lock together first 'long' contigs") and
//! locking contigs into scaffolds. The traversal is inherently serial, but
//! the tie graph is orders of magnitude smaller than the k-mer graph, so
//! its runtime is insignificant — the paper found exactly that, and the
//! serial section's operation count is recorded on the phase report (and
//! priced like compute) to keep the claim checkable.

use crate::links::Link;
use crate::scaffolds::{Scaffold, ScaffoldMember};
use hipmer_contig::{walk_chains, ContigEnd, ContigSet};
use hipmer_dna::KmerHashMap;
use hipmer_pgas::{PhaseReport, Team};

/// Build scaffolds from links by greedy reciprocal-best tie locking.
pub fn order_and_orient(
    team: &Team,
    contigs: &ContigSet,
    links: &[Link],
) -> (Vec<Scaffold>, PhaseReport) {
    // Parallel part: each rank consolidates 1/p of the links into per-end
    // best candidates (in UPC this walks the links table's local buckets).
    let (best_lists, stats) = team.run_named("scaffold/ties", |ctx| {
        let mut best: KmerHashMap<(u32, ContigEnd), Link> = KmerHashMap::default();
        for l in &links[ctx.chunk(links.len())] {
            ctx.stats.compute(1);
            for end in [l.key.0, l.key.1] {
                match best.get(&end) {
                    Some(cur) if better(cur, l) => {}
                    _ => {
                        best.insert(end, *l);
                    }
                }
            }
        }
        best.into_iter().collect::<Vec<_>>()
    });

    // Serial part: merge the per-rank bests, then traverse ties. Its work
    // is counted as it goes: one op per candidate merged, per end assessed
    // and per contig placed.
    let mut serial_ops = 0u64;
    let mut best: KmerHashMap<(u32, ContigEnd), Link> = KmerHashMap::default();
    for (end, l) in best_lists.into_iter().flatten() {
        serial_ops += 1;
        match best.get(&end) {
            Some(cur) if better(cur, &l) => {}
            _ => {
                best.insert(end, l);
            }
        }
    }

    // A tie is usable iff it is the best link of BOTH of its ends
    // (reciprocal best — repeats produce conflicting links that lose this
    // filter).
    let mut tie: KmerHashMap<(u32, ContigEnd), ((u32, ContigEnd), i64)> = KmerHashMap::default();
    for l in best.values() {
        let (a, b) = l.key;
        if a.0 == b.0 {
            continue; // self-tie (palindromic repeat)
        }
        let best_a = best.get(&a);
        let best_b = best.get(&b);
        if best_a.map(|x| x.key) == Some(l.key) && best_b.map(|x| x.key) == Some(l.key) {
            tie.insert(a, (b, l.gap));
            tie.insert(b, (a, l.gap));
        }
    }

    // Seed contigs in decreasing length (= index order); lock chains.
    let n = contigs.contigs.len();
    serial_ops += (best.len() + n) as u64;
    let tie_of = |c: usize, end: ContigEnd| tie.get(&(c as u32, end));
    let scaffolds = walk_chains(n, |c, end| {
        tie_of(c, end).map(|&((other, other_end), _)| (other as usize, other_end))
    })
    .iter()
    .map(|chain| Scaffold {
        members: chain
            .iter()
            .enumerate()
            .map(|(i, &(c, reversed))| ScaffoldMember {
                contig: c as u32,
                reversed,
                // The gap of the tie the walk entered this contig through:
                // joining via its Left end means forward orientation.
                gap_before: if i == 0 {
                    0
                } else {
                    tie_of(c, ContigEnd::facing_left(reversed))
                        .expect("the walk came through a tie")
                        .1
                },
            })
            .collect(),
    })
    .collect();

    (
        scaffolds,
        PhaseReport::new("scaffold/ties", *team.topo(), stats).with_serial_ops(serial_ops),
    )
}

/// Whether link `cur` beats `cand` (more support, then tighter gap, then
/// key order for determinism).
fn better(cur: &Link, cand: &Link) -> bool {
    (cur.support, -cur.gap, cand.key) > (cand.support, -cand.gap, cur.key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::links::{end_key, LinkKind};
    use hipmer_dna::KmerCodec;
    use hipmer_pgas::Topology;

    fn contigs(n: usize) -> ContigSet {
        // Longest first so id = index ordering is stable: lengths 100-n..100.
        let seqs = (0..n).map(|i| vec![b'A'; 100 - i]).collect();
        ContigSet::from_sequences(KmerCodec::new(21), seqs)
    }

    fn link(c1: u32, e1: ContigEnd, c2: u32, e2: ContigEnd, gap: i64, support: u32) -> Link {
        Link {
            key: end_key((c1, e1), (c2, e2)),
            gap,
            support,
            kind: LinkKind::Span,
        }
    }

    #[test]
    fn chain_of_three_forms_one_scaffold() {
        let team = Team::new(Topology::new(2, 2));
        let cs = contigs(3);
        // 0.Right - 1.Left, 1.Right - 2.Left.
        let links = vec![
            link(0, ContigEnd::Right, 1, ContigEnd::Left, 10, 5),
            link(1, ContigEnd::Right, 2, ContigEnd::Left, 20, 5),
        ];
        let (scaffolds, _) = order_and_orient(&team, &cs, &links);
        assert_eq!(scaffolds.len(), 1);
        let m = &scaffolds[0].members;
        assert_eq!(m.len(), 3);
        let order: Vec<u32> = m.iter().map(|x| x.contig).collect();
        assert_eq!(order, vec![0, 1, 2]);
        assert!(m.iter().all(|x| !x.reversed));
        assert_eq!(m[1].gap_before, 10);
        assert_eq!(m[2].gap_before, 20);
    }

    #[test]
    fn orientation_flips_when_joining_right_end() {
        let team = Team::new(Topology::new(1, 1));
        let cs = contigs(2);
        // 0.Right meets 1.Right: contig 1 must be reversed.
        let links = vec![link(0, ContigEnd::Right, 1, ContigEnd::Right, 15, 4)];
        let (scaffolds, _) = order_and_orient(&team, &cs, &links);
        assert_eq!(scaffolds.len(), 1);
        let m = &scaffolds[0].members;
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].contig, 0);
        assert!(!m[0].reversed);
        assert_eq!(m[1].contig, 1);
        assert!(m[1].reversed);
    }

    #[test]
    fn conflicting_links_break_at_repeat() {
        let team = Team::new(Topology::new(1, 1));
        let cs = contigs(4);
        // Both 0 and 1 claim 2.Left; the weaker tie loses reciprocal-best
        // and its contig scaffolds alone.
        let links = vec![
            link(0, ContigEnd::Right, 2, ContigEnd::Left, 10, 8),
            link(1, ContigEnd::Right, 2, ContigEnd::Left, 10, 3),
            link(2, ContigEnd::Right, 3, ContigEnd::Left, 10, 5),
        ];
        let (scaffolds, _) = order_and_orient(&team, &cs, &links);
        // Expect {0,2,3} together and {1} alone.
        let sizes: Vec<usize> = scaffolds.iter().map(|s| s.members.len()).collect();
        assert!(sizes.contains(&3), "{scaffolds:?}");
        assert!(sizes.contains(&1));
        let solo = scaffolds.iter().find(|s| s.members.len() == 1).unwrap();
        assert_eq!(solo.members[0].contig, 1);
    }

    #[test]
    fn unlinked_contigs_become_singletons() {
        let team = Team::new(Topology::new(1, 1));
        let cs = contigs(3);
        let (scaffolds, _) = order_and_orient(&team, &cs, &[]);
        assert_eq!(scaffolds.len(), 3);
        assert!(scaffolds.iter().all(|s| s.members.len() == 1));
    }

    #[test]
    fn every_contig_appears_exactly_once() {
        let team = Team::new(Topology::new(4, 2));
        let cs = contigs(10);
        let links = vec![
            link(0, ContigEnd::Right, 5, ContigEnd::Left, 10, 5),
            link(5, ContigEnd::Right, 7, ContigEnd::Left, 10, 5),
            link(2, ContigEnd::Right, 3, ContigEnd::Right, 10, 5),
        ];
        let (scaffolds, _) = order_and_orient(&team, &cs, &links);
        let mut seen = vec![0usize; 10];
        for s in &scaffolds {
            for m in &s.members {
                seen[m.contig as usize] += 1;
            }
        }
        assert_eq!(seen, vec![1; 10]);
    }
}
