//! Property tests for the PGAS runtime simulator.

use hipmer_pgas::json::Value;
use hipmer_pgas::{
    AggregatingStores, CommStats, CostModel, DistHashMap, OracleVector, RankCtx, SoftwareCache,
    Team, Topology,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Bytes JSON is made of, so random text often gets deep into the parser
/// (numbers, escapes, literals, containers) before it goes wrong.
const JSON_BYTES: &[u8] = b"{}[]:,\"\\/ \t\n-+.0123456789eEtrufalsnbu\xc3\xa9";

proptest! {
    // `Value::parse` is the trust boundary for everything the daemon and the
    // checkpoint store read back: any text, JSON-shaped, deeply nested or
    // lossily decoded from arbitrary bytes, is `Ok` or `Err`, never a panic.
    #[test]
    fn json_parse_never_panics(
        shaped in prop::collection::vec(prop::sample::select(JSON_BYTES), 0..96),
        raw in prop::collection::vec(any::<u8>(), 0..256),
        depth in 0usize..300,
        object in any::<bool>(),
    ) {
        let shaped = String::from_utf8_lossy(&shaped);
        let opener = if object { "{\"k\":" } else { "[" };
        let _ = Value::parse(&shaped);
        let _ = Value::parse(&format!("{}{shaped}", opener.repeat(depth)));
        let _ = Value::parse(&String::from_utf8_lossy(&raw));
    }
}

proptest! {
    #[test]
    fn chunks_tile_any_input(ranks in 1usize..64, rpn in 1usize..32, n in 0usize..10_000) {
        let topo = Topology::new(ranks, rpn);
        let mut covered = 0usize;
        for r in 0..ranks {
            let c = topo.chunk(n, r);
            prop_assert_eq!(c.start, covered);
            covered = c.end;
        }
        prop_assert_eq!(covered, n);
    }

    #[test]
    fn dht_agrees_with_reference_hashmap(ops in prop::collection::vec((0u64..64, 0u32..100), 0..300)) {
        let topo = Topology::new(6, 3);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        let mut ctx = RankCtx::new(0, topo);
        for (k, v) in ops {
            dht.update(&mut ctx, k, || 0, |x| *x += v);
            *reference.entry(k).or_insert(0) += v;
        }
        let dht = dht.freeze();
        prop_assert_eq!(dht.len(), reference.len());
        for (k, v) in reference {
            prop_assert_eq!(dht.get(&mut ctx, &k), Some(&v));
        }
    }

    #[test]
    fn aggregated_and_fine_grained_updates_agree(
        keys in prop::collection::vec(0u64..200, 1..500),
        batch in 1usize..64,
    ) {
        let topo = Topology::new(8, 4);
        let fine: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let agg_t: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(2, topo);
        let mut agg = AggregatingStores::with_batch(&agg_t, |a: &mut u32, b| *a += b, batch);
        for &k in &keys {
            fine.update(&mut ctx, k, || 0, |v| *v += 1);
            agg.push(&mut ctx, k, 1);
        }
        agg.flush_all(&mut ctx);
        drop(agg);
        let mut a = fine.into_entries();
        let mut b = agg_t.into_entries();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn multi_get_matches_sequential_gets_with_fewer_messages(
        present in prop::collection::vec(0u64..300, 1..400),
        probes in prop::collection::vec(0u64..400, 2..400),
        acting in 0usize..8,
    ) {
        let topo = Topology::new(8, 4);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut setup = RankCtx::new(0, topo);
        for &k in &present {
            dht.insert(&mut setup, k, (k as u32).wrapping_mul(7));
        }
        let dht = dht.freeze();

        // Fine-grained baseline: one get (one message) per key.
        let mut fine = RankCtx::new(acting, topo);
        let fine_vals: Vec<Option<&u32>> =
            probes.iter().map(|k| dht.get(&mut fine, k)).collect();

        // One multi-get over the same keys, same acting rank.
        let mut bat = RankCtx::new(acting, topo);
        let batch_vals = dht.multi_get(&mut bat, &probes);

        // Byte-identical results, byte-identical bandwidth, strictly fewer
        // messages whenever any owner serves more than one key.
        prop_assert_eq!(fine_vals, batch_vals);
        prop_assert_eq!(
            fine.stats.onnode_bytes + fine.stats.offnode_bytes,
            bat.stats.onnode_bytes + bat.stats.offnode_bytes
        );
        prop_assert!(bat.stats.total_accesses() <= fine.stats.total_accesses());
        let distinct_owners = {
            let mut owners: Vec<usize> = probes.iter().map(|k| dht.owner(k)).collect();
            owners.sort_unstable();
            owners.dedup();
            owners.len()
        };
        prop_assert_eq!(bat.stats.total_accesses(), distinct_owners as u64);
        if distinct_owners < probes.len() {
            prop_assert!(bat.stats.total_accesses() < fine.stats.total_accesses());
        }
        prop_assert_eq!(bat.stats.lookup_batches, distinct_owners as u64);
    }

    #[test]
    fn cached_reads_are_transparent(
        present in prop::collection::vec(0u64..200, 1..200),
        probes in prop::collection::vec(0u64..300, 1..500),
        capacity in 1usize..64,
    ) {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut setup = RankCtx::new(0, topo);
        for &k in &present {
            dht.insert(&mut setup, k, k as u32 ^ 0x5a5a);
        }
        let dht = dht.freeze();
        // Read through: probe the cache; on a miss read the table and
        // remember the answer, absent or not.
        let mut c = RankCtx::new(3, topo);
        let mut cache: SoftwareCache<u64, Option<&u32>> = SoftwareCache::new(capacity);
        for k in &probes {
            let direct = dht.get(&mut RankCtx::new(3, topo), k);
            let cached = cache.get(&mut c, k).unwrap_or_else(|| {
                let fetched = dht.get(&mut c, k);
                cache.insert(*k, fetched);
                fetched
            });
            prop_assert_eq!(cached, direct);
        }
        prop_assert!(cache.len() <= capacity);
        prop_assert_eq!(
            c.stats.cache_hits + c.stats.cache_misses,
            probes.len() as u64
        );
        // Every access the cache saved is a hit; misses fall through 1:1.
        prop_assert_eq!(
            c.stats.total_accesses() + c.stats.cache_hits,
            probes.len() as u64
        );
    }

    #[test]
    fn modeled_phase_time_is_monotone_in_work(
        base_ops in 1u64..1_000_000,
        extra in 1u64..1_000_000,
        ranks in 1usize..128,
    ) {
        let topo = Topology::new(ranks, 24);
        let model = CostModel::edison();
        let mk = |ops: u64| {
            let stats: Vec<CommStats> = (0..ranks)
                .map(|_| CommStats { compute_ops: ops, ..CommStats::default() })
                .collect();
            model.phase_time(&topo, &stats).total()
        };
        prop_assert!(mk(base_ops + extra) > mk(base_ops));
    }

    #[test]
    fn oracle_lookup_always_in_range(
        hashes in prop::collection::vec(any::<u64>(), 1..200),
        slots in 1usize..512,
        ranks in 1usize..64,
    ) {
        let mut o = OracleVector::new(slots, ranks);
        for (i, &h) in hashes.iter().enumerate() {
            o.assign(h, i % ranks);
        }
        for &h in &hashes {
            prop_assert!(o.owner(h) < ranks);
        }
        // Unseen hashes also resolve in range (cyclic fallback).
        prop_assert!(o.owner(0xdead_beef) < ranks);
    }

    #[test]
    fn team_results_ordered_by_rank(ranks in 1usize..64, threads in 1usize..6) {
        let team = Team::new(Topology::new(ranks, 8)).with_os_threads(threads);
        let (out, stats) = team.run_named("test/rank-order", |ctx| ctx.rank * 3);
        prop_assert_eq!(out, (0..ranks).map(|r| r * 3).collect::<Vec<_>>());
        prop_assert_eq!(stats.len(), ranks);
    }
}
