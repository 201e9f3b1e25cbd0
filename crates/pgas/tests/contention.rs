//! The sender-applied send path under real lock contention: 16 ranks on
//! 1, 2 and 4 OS threads all write to keys owned by **one** rank, through
//! `Outbox` and `AggregatingStores`. A process
//! of its own, so its metric observations cannot leak into the lib tests
//! that snapshot the process-global registry.

use hipmer_pgas::{AggregatingStores, CommStats, DistHashMap, Outbox, RankCtx, Team, Topology};
use std::collections::HashMap;

fn add(a: &mut u32, b: u32) {
    *a += b;
}

/// A table's entries, sorted.
type Entries = Vec<(u64, u32)>;

/// One phase of writes with every key owned by a single rank, so all
/// workers queue on that rank's one partition lock. Returns the table
/// contents, the outbox-fed side table's contents and the per-rank stats.
fn hot_owner_run(threads: usize, batch: usize) -> (Entries, Entries, Vec<CommStats>) {
    const HOT: usize = 5;
    const KEYS: u64 = 96;
    let topo = Topology::new(16, 8);
    let dht: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| HOT);
    let side: DistHashMap<u64, u32> = DistHashMap::with_owner(topo, |_| HOT);
    let team = Team::new(topo).with_os_threads(threads);
    let (_, mut stats) = team.run_named("test/hot-owner-write", |ctx| {
        let mut agg = AggregatingStores::with_batch(&dht, add, batch);
        let mut outbox: Outbox<(u64, u32)> = Outbox::new(topo, batch);
        let mut apply = |_: &mut RankCtx, dest: usize, items: &mut Vec<(u64, u32)>| {
            side.merge_batch(dest, items.drain(..), add)
        };
        for i in 0..400u64 {
            let key = (i * 7 + ctx.rank as u64) % KEYS;
            agg.push(ctx, key, i as u32 + 1);
            outbox.push(ctx, HOT, (key, 1), &mut apply);
        }
        agg.finish(ctx);
        outbox.finish(ctx, &mut apply);
    });
    dht.drain_service_into(&mut stats);
    // Measured host time: the field allowed to differ.
    let stats: Vec<CommStats> = stats.into_iter().map(CommStats::counted).collect();
    let sorted = |t: DistHashMap<u64, u32>| {
        let mut entries: Entries = t.freeze().iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        entries
    };
    (sorted(dht), sorted(side), stats)
}

#[test]
fn single_send_path_is_exact_under_hot_owner_contention() {
    // Sequential reference for both tables.
    let mut want: HashMap<u64, u32> = HashMap::new();
    let mut want_side: HashMap<u64, u32> = HashMap::new();
    for rank in 0..16u64 {
        for i in 0..400u64 {
            *want.entry((i * 7 + rank) % 96).or_insert(0) += i as u32 + 1;
            *want_side.entry((i * 7 + rank) % 96).or_insert(0) += 1;
        }
    }
    let sorted = |m: &HashMap<u64, u32>| {
        let mut entries: Vec<(u64, u32)> = m.iter().map(|(k, v)| (*k, *v)).collect();
        entries.sort_unstable();
        entries
    };
    for batch in [1usize, 7, 256] {
        let mut serial_stats = None;
        for threads in [1usize, 2, 4] {
            let (table, side, stats) = hot_owner_run(threads, batch);
            let at = format!("threads {threads}, batch {batch}");
            assert_eq!(table, sorted(&want), "AggregatingStores table, {at}");
            assert_eq!(side, sorted(&want_side), "Outbox-fed table, {at}");
            let serial = serial_stats.get_or_insert_with(|| stats.clone());
            assert_eq!(&stats, serial, "per-rank CommStats, {at}");
        }
    }
}
