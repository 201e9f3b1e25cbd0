//! Aggregating stores (§4.1 of the paper, introduced in \[13\]).
//!
//! Fine-grained remote upserts — one per k-mer, splint, or span — would put
//! one message on the network each. The aggregating-stores optimization
//! buffers updates per destination rank and ships each buffer as a single
//! message when full, cutting the message count along the critical path by
//! the batch factor and reducing synchronization on the destination shard
//! (one lock acquisition per batch instead of per element).
//!
//! The buffered elements still pay bandwidth (bytes are accounted in full);
//! only the per-message latency and per-element lock traffic are saved —
//! the same trade the paper's UPC implementation makes.
//!
//! Sends are **blocking**: a full buffer is applied at its owner before
//! `push` returns, waiting for the owner's lock if another worker holds it.
//! "Remote" in this single-process runtime is a `Mutex` held for one
//! ≤ [`DEFAULT_BATCH`]-entry bucket, so there is no round trip worth
//! overlapping with compute (DESIGN.md §12). The owner receives the
//! per-destination buffer itself (`&mut Vec<T>`) and hands it back empty
//! with its capacity, so the batcher allocates nothing per batch.
//!
//! [`Outbox`] is the only implementation of per-destination buffering in
//! this crate. [`AggregatingStores`] (upserts into a [`DistHashMap`]) and
//! [`crate::LookupBatch`] (batched reads, in [`crate::lookup`]) are thin
//! adapters that fix the apply step; all three share one accounting
//! contract.

use crate::dht::DistHashMap;
use crate::team::RankCtx;
use crate::topology::Topology;
use std::hash::Hash;

/// A generic per-destination message aggregator.
///
/// [`AggregatingStores`] covers the common "batched upsert into a
/// [`DistHashMap`]" case; `Outbox` is the underlying pattern for anything
/// else that batches per-destination work (e.g. Bloom-filter insertion in
/// k-mer analysis, where the *owner's* filter must absorb the key). The
/// caller supplies the apply function; the outbox accounts one message per
/// shipped batch, **before** the batch is applied, so per-rank counters
/// depend only on the rank's own push sequence.
///
/// `apply(ctx, dest, items)` receives the destination's buffer and must
/// consume what it needs from it (by `drain(..)` or by reading it in
/// place); whatever it leaves behind is cleared, and the buffer keeps its
/// capacity for the next batch.
pub struct Outbox<T> {
    buffers: Vec<Vec<T>>,
    batch: usize,
    item_bytes: u64,
    topo: Topology,
}

impl<T> Outbox<T> {
    /// An outbox over `topo` shipping batches of `batch` items.
    ///
    /// Bandwidth is billed at `size_of::<T>()` per item by default. Beware
    /// the caveat: that is the item's *in-memory* size, which includes any
    /// alignment padding — a `(Kmer, ExtVotes)` tuple, say, occupies more
    /// bytes in a Rust `Vec` than its fields would occupy packed on the
    /// wire, so padded payloads overstate modeled bandwidth. Real senders
    /// serialize packed; callers with padded item types should declare the
    /// packed wire size via [`Outbox::with_item_bytes`].
    pub fn new(topo: Topology, batch: usize) -> Self {
        assert!(batch >= 1);
        Outbox {
            buffers: (0..topo.ranks()).map(|_| Vec::new()).collect(),
            batch,
            item_bytes: std::mem::size_of::<T>() as u64,
            topo,
        }
    }

    /// Override the modeled wire bytes billed per item (default:
    /// `size_of::<T>()`, which counts struct padding — see [`Outbox::new`]).
    /// Use the packed sum of the fields a real sender would serialize.
    pub fn with_item_bytes(mut self, item_bytes: u64) -> Self {
        assert!(item_bytes >= 1, "an item on the wire has at least one byte");
        self.item_bytes = item_bytes;
        self
    }

    /// Queue `item` for `dest`; ships that buffer through `apply` if full.
    pub fn push<F>(&mut self, ctx: &mut RankCtx, dest: usize, item: T, apply: &mut F)
    where
        F: FnMut(&mut RankCtx, usize, &mut Vec<T>),
    {
        self.buffers[dest].push(item);
        if self.buffers[dest].len() >= self.batch {
            self.ship(ctx, dest, apply);
        }
    }

    /// Ship one destination's buffer as a single message: account it, then
    /// apply it at the owner and take the emptied buffer back.
    fn ship<F>(&mut self, ctx: &mut RankCtx, dest: usize, apply: &mut F)
    where
        F: FnMut(&mut RankCtx, usize, &mut Vec<T>),
    {
        let items = &mut self.buffers[dest];
        if items.is_empty() {
            return;
        }
        let bytes = items.len() as u64 * self.item_bytes;
        ctx.comm(&self.topo, dest, bytes);
        apply(ctx, dest, items);
        items.clear();
    }

    /// Ship every non-empty buffer — on return every queued item has been
    /// applied (call before the phase barrier).
    pub fn flush_all<F>(&mut self, ctx: &mut RankCtx, apply: &mut F)
    where
        F: FnMut(&mut RankCtx, usize, &mut Vec<T>),
    {
        for dest in 0..self.buffers.len() {
            self.ship(ctx, dest, apply);
        }
    }

    /// Consume the outbox: flush every buffer, then hard-assert nothing is
    /// left pending. Prefer this over a bare [`flush_all`](Self::flush_all)
    /// at the end of a phase — it cannot be silently skipped on an early
    /// return path, and it runs the check in release builds too.
    pub fn finish<F>(mut self, ctx: &mut RankCtx, apply: &mut F)
    where
        F: FnMut(&mut RankCtx, usize, &mut Vec<T>),
    {
        self.flush_all(ctx, apply);
        assert_eq!(self.pending(), 0, "Outbox::finish left items pending");
    }

    /// Items currently buffered.
    pub fn pending(&self) -> usize {
        self.buffers.iter().map(Vec::len).sum()
    }

    /// Discard every buffered item without shipping it. The abort-safe
    /// teardown for a stage that failed mid-flight: the un-shipped work is
    /// intentionally thrown away (the stage will be re-executed from
    /// scratch), and the `Drop` drained-buffer assertion is disarmed.
    pub fn abandon(mut self) {
        for buf in &mut self.buffers {
            buf.clear();
        }
    }
}

impl<T> Drop for Outbox<T> {
    fn drop(&mut self) {
        // An injected rank failure unwinds through pending buffers by
        // design; asserting then would turn an orderly stage abort into a
        // double-panic process abort.
        if std::thread::panicking() {
            return;
        }
        debug_assert_eq!(
            self.pending(),
            0,
            "batcher dropped with un-shipped items; call finish or abandon"
        );
    }
}

/// Default elements per destination buffer. The paper does not publish its
/// batch size; hundreds-per-destination is the regime where per-message
/// latency stops mattering.
pub const DEFAULT_BATCH: usize = 256;

/// A per-rank buffer set for batched upserts into a [`DistHashMap`]: an
/// [`Outbox`] whose apply step is [`DistHashMap::merge_batch`].
///
/// One `AggregatingStores` is created per acting rank per phase (it is not
/// shared between ranks). Call [`push`](Self::push) for each update and
/// consume the aggregator with [`finish`](Self::finish) (or at least
/// [`flush_all`](Self::flush_all)) before the phase ends; un-flushed
/// updates are lost (`finish` asserts in all builds, and the outbox's
/// `debug_assert` in `Drop` catches aggregators abandoned at phase end).
/// The read-side mirror of this type is [`crate::LookupBatch`].
///
/// Merge application order across ranks' batches depends on the OS-thread
/// schedule, which is output-safe only because every merge in this repo
/// commutes (see DESIGN.md §12).
pub struct AggregatingStores<'a, K, V, M> {
    dht: &'a DistHashMap<K, V>,
    merge: M,
    outbox: Outbox<(K, V)>,
}

impl<'a, K, V, M> AggregatingStores<'a, K, V, M>
where
    K: Hash + Eq + Send,
    V: Send,
    M: Fn(&mut V, V),
{
    /// New buffer set targeting `dht`, combining colliding values with
    /// `merge` (e.g. vote-count addition).
    pub fn new(dht: &'a DistHashMap<K, V>, merge: M) -> Self {
        Self::with_batch(dht, merge, DEFAULT_BATCH)
    }

    /// As [`new`](Self::new) with an explicit batch size (ablation hook).
    pub fn with_batch(dht: &'a DistHashMap<K, V>, merge: M, batch: usize) -> Self {
        AggregatingStores {
            dht,
            merge,
            outbox: Outbox::new(*dht.topo(), batch).with_item_bytes(dht.entry_bytes()),
        }
    }

    /// Queue one upsert; a full destination buffer is shipped as a single
    /// aggregated message and merged at its owner.
    pub fn push(&mut self, ctx: &mut RankCtx, key: K, value: V) {
        let dest = self.dht.owner(&key);
        let mut apply = merge_at_owner(self.dht, &self.merge);
        self.outbox.push(ctx, dest, (key, value), &mut apply);
    }

    /// Ship every non-empty buffer — on return every queued upsert has
    /// landed (call before the phase barrier).
    pub fn flush_all(&mut self, ctx: &mut RankCtx) {
        let mut apply = merge_at_owner(self.dht, &self.merge);
        self.outbox.flush_all(ctx, &mut apply);
    }

    /// Consume the aggregator: flush every buffer, then hard-assert all
    /// buffers drained. Unlike the `Drop` debug assertion this also fires
    /// in release builds, closing the flush-on-drop hole for phases whose
    /// updates must not be silently lost.
    pub fn finish(self, ctx: &mut RankCtx) {
        let mut apply = merge_at_owner(self.dht, &self.merge);
        self.outbox.finish(ctx, &mut apply);
    }
}

/// The apply step of [`AggregatingStores`]: drain the shipped buffer into
/// the owner's partition.
fn merge_at_owner<'d, K, V, M>(
    dht: &'d DistHashMap<K, V>,
    merge: &'d M,
) -> impl FnMut(&mut RankCtx, usize, &mut Vec<(K, V)>) + 'd
where
    K: Hash + Eq + Send,
    V: Send,
    M: Fn(&mut V, V),
{
    move |_, dest, entries| dht.merge_batch(dest, entries.drain(..), merge)
}

impl<K, V, M> AggregatingStores<'_, K, V, M> {
    /// Elements currently buffered.
    pub fn pending(&self) -> usize {
        self.outbox.pending()
    }

    /// Discard every buffered update without flushing it — the abort-safe
    /// teardown for a stage that failed mid-flight (the stage re-executes
    /// from scratch, so the pending upserts must *not* land).
    pub fn abandon(self) {
        self.outbox.abandon();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommStats, Topology};
    use std::collections::HashMap;

    fn add(a: &mut u32, b: u32) {
        *a += b;
    }

    #[test]
    fn batched_updates_apply_with_merge() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::with_batch(&dht, add, 8);
        for k in 0..100u64 {
            agg.push(&mut ctx, k % 10, 1);
        }
        agg.flush_all(&mut ctx);
        drop(agg);
        let dht = dht.freeze();
        for k in 0..10u64 {
            assert_eq!(dht.get(&mut ctx, &k), Some(&10), "key {k}");
        }
    }

    #[test]
    fn aggregation_reduces_message_count() {
        let topo = Topology::new(8, 4);
        let n = 4096u64;

        // Fine-grained: one message per update.
        let dht1: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut fine = RankCtx::new(0, topo);
        for k in 0..n {
            dht1.update(&mut fine, k, || 0, |v| *v += 1);
        }

        // Aggregated.
        let dht2: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut agg_ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::with_batch(&dht2, add, 128);
        for k in 0..n {
            agg.push(&mut agg_ctx, k, 1);
        }
        agg.flush_all(&mut agg_ctx);

        assert_eq!(dht1.len(), dht2.len());
        let fine_msgs = fine.stats.remote_msgs();
        let agg_msgs = agg_ctx.stats.remote_msgs();
        assert!(
            agg_msgs * 32 < fine_msgs,
            "batching must slash messages: {agg_msgs} vs {fine_msgs}"
        );
        // Bandwidth is NOT saved — bytes must be comparable.
        let fine_bytes = fine.stats.onnode_bytes + fine.stats.offnode_bytes;
        let agg_bytes = agg_ctx.stats.onnode_bytes + agg_ctx.stats.offnode_bytes;
        assert_eq!(fine_bytes, agg_bytes);
    }

    #[test]
    fn flush_all_empties_buffers_and_finish_consumes() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::new(&dht, add);
        for k in 0..5u64 {
            agg.push(&mut ctx, k, 1);
        }
        assert_eq!(agg.pending(), 5);
        agg.flush_all(&mut ctx);
        assert_eq!(agg.pending(), 0);
        assert_eq!(dht.len(), 5);
        for k in 5..9u64 {
            agg.push(&mut ctx, k, 1);
        }
        agg.finish(&mut ctx);
        assert_eq!(dht.len(), 9);
    }

    #[test]
    fn abandon_discards_pending_updates() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::new(&dht, add);
        for k in 0..5u64 {
            agg.push(&mut ctx, k, 1);
        }
        agg.abandon(); // no drop assertion, and nothing lands
        assert_eq!(dht.len(), 0);
    }

    #[test]
    #[should_panic(expected = "batcher dropped with un-shipped items")]
    #[cfg(debug_assertions)]
    fn dropping_pending_updates_panics_in_debug() {
        let topo = Topology::new(2, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::new(&dht, add);
        agg.push(&mut ctx, 7, 1);
        drop(agg);
    }

    #[test]
    fn service_ops_still_counted_at_owner() {
        let topo = Topology::new(4, 2);
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::with_batch(&dht, add, 16);
        for k in 0..64u64 {
            agg.push(&mut ctx, k, 1);
        }
        agg.flush_all(&mut ctx);
        let mut stats = vec![CommStats::new(); 4];
        dht.drain_service_into(&mut stats);
        let total: u64 = stats.iter().map(|s| s.service_ops).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn outbox_batches_and_applies() {
        let topo = Topology::new(4, 2);
        let mut ctx = RankCtx::new(0, topo);
        let mut outbox: Outbox<u64> = Outbox::new(topo, 10);
        let mut landed: HashMap<usize, Vec<u64>> = HashMap::new();
        let mut apply = |_: &mut RankCtx, dest: usize, items: &mut Vec<u64>| {
            landed.entry(dest).or_default().append(items);
        };
        for i in 0..95u64 {
            outbox.push(&mut ctx, (i % 4) as usize, i, &mut apply);
        }
        outbox.flush_all(&mut ctx, &mut apply);
        assert_eq!(outbox.pending(), 0);
        let total: usize = landed.values().map(Vec::len).sum();
        assert_eq!(total, 95);
        // 95 items over 4 dests in batches of 10 -> far fewer messages than
        // items; rank 0 messages are local ops.
        let msgs = ctx.stats.total_accesses();
        assert!(msgs <= 12, "messages {msgs}");
    }

    #[test]
    fn shipped_buffer_comes_back_empty_with_its_capacity() {
        // The in-place contract: apply may read the batch without draining
        // it; the outbox clears it and never reallocates a steady buffer.
        let topo = Topology::new(2, 1);
        let mut ctx = RankCtx::new(0, topo);
        let mut outbox: Outbox<u64> = Outbox::new(topo, 8);
        let mut seen = 0usize;
        let mut storage: Vec<*const u64> = Vec::new();
        let mut apply = |_: &mut RankCtx, _dest: usize, items: &mut Vec<u64>| {
            seen += items.len(); // read in place, leave the items behind
            storage.push(items.as_ptr());
        };
        for i in 0..64u64 {
            outbox.push(&mut ctx, 1, i, &mut apply);
        }
        outbox.finish(&mut ctx, &mut apply);
        assert_eq!(seen, 64, "left-behind items are cleared, never re-shipped");
        assert_eq!(storage.len(), 8);
        assert!(
            storage.iter().all(|&p| p == storage[0]),
            "one allocation serves every batch of a destination"
        );
    }

    #[test]
    fn item_bytes_override_replaces_padded_default() {
        // A padded payload: (u64, u8) occupies 16 in-memory bytes but only
        // 9 packed wire bytes.
        let topo = Topology::new(2, 1);
        assert_eq!(std::mem::size_of::<(u64, u8)>(), 16);
        let run = |outbox: &mut Outbox<(u64, u8)>| {
            let mut ctx = RankCtx::new(0, topo);
            let mut apply = |_: &mut RankCtx, _dest: usize, _items: &mut Vec<(u64, u8)>| {};
            for i in 0..50u64 {
                outbox.push(&mut ctx, 1, (i, 0), &mut apply);
            }
            outbox.flush_all(&mut ctx, &mut apply);
            ctx.stats.onnode_bytes + ctx.stats.offnode_bytes
        };
        let mut padded: Outbox<(u64, u8)> = Outbox::new(topo, 8);
        let mut packed: Outbox<(u64, u8)> = Outbox::new(topo, 8).with_item_bytes(9);
        assert_eq!(run(&mut padded), 50 * 16);
        assert_eq!(run(&mut packed), 50 * 9);
    }

    #[test]
    fn outbox_abandon_discards_pending() {
        let topo = Topology::new(4, 2);
        let mut ctx = RankCtx::new(0, topo);
        let mut outbox: Outbox<u64> = Outbox::new(topo, 100);
        let mut apply =
            |_: &mut RankCtx, _dest: usize, _items: &mut Vec<u64>| panic!("nothing may ship");
        for i in 0..7u64 {
            outbox.push(&mut ctx, (i % 4) as usize, i, &mut apply);
        }
        assert_eq!(outbox.pending(), 7);
        outbox.abandon();
    }

    #[test]
    #[should_panic(expected = "batcher dropped with un-shipped items")]
    #[cfg(debug_assertions)]
    fn dropping_pending_outbox_items_panics_in_debug() {
        let topo = Topology::new(2, 2);
        let mut ctx = RankCtx::new(0, topo);
        let mut outbox: Outbox<u64> = Outbox::new(topo, 100);
        outbox.push(&mut ctx, 1, 7, &mut |_, _, _| {});
        drop(outbox);
    }
}
