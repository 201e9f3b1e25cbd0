//! Aggregating stores (§4.1 of the paper, introduced in \[13\]).
//!
//! Fine-grained remote upserts — one per k-mer, splint, or span — would put
//! one message on the network each. The aggregating-stores optimization
//! buffers updates per destination rank and ships each buffer as a single
//! message when full, cutting the message count along the critical path by
//! the batch factor.
//!
//! The buffered elements still pay bandwidth (bytes are accounted in full);
//! only the per-message latency is saved — the same trade the paper's UPC
//! implementation makes.
//!
//! [`Outbox`] is the only implementation of per-destination buffering in
//! this crate: it accounts a full buffer as one message, billed to the
//! sender, and hands it to a ship step.
//!
//! **Writes go through an [`Exchange`]**, in supersteps
//! ([`Team::run_supersteps`](crate::Team::run_supersteps)). A shipped
//! batch is posted to a mailbox that only its sender writes, one per
//! (source, destination) pair; in the next superstep the destination
//! applies its mail to its own partition, sources in rank order. So each
//! partition is written by the one thread that runs its owner, its lock is
//! never contended, and the order the batches land in depends on the input
//! and the rank count only, not on how ranks are spread over threads. A
//! team-wide byte budget, [`SUPERSTEP_BYTES`], bounds the mail in flight.
//!
//! Reads do not go through an outbox: a phase that reads a frozen table in
//! bulk collects its keys and calls
//! [`FrozenMap::multi_get`](crate::FrozenMap::multi_get), one message per
//! owner.
//!
//! The ship step receives the sender's buffer itself (`&mut Vec<T>`) and
//! hands it back empty with its capacity, so the batcher allocates nothing
//! per batch. An exchange's last shipment instead moves each buffer into
//! its mailbox and frees the rest: at high rank counts few buffers ever
//! fill, and what a pass sends waits in them until that shipment.
//! [`AggregatingStores`], the older sender-applied write path, is kept for
//! one microbenchmark only.

use crate::dht::DistHashMap;
use crate::team::RankCtx;
use crate::topology::Topology;
use parking_lot::{Mutex, MutexGuard};
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A generic per-destination message aggregator.
///
/// The caller supplies the ship step (`apply`): posting the batch to its
/// owner's mailbox ([`Exchange`]) or merging it at the owner
/// ([`AggregatingStores`]). The outbox accounts one message per shipped
/// batch, **before** the ship step runs, so per-rank counters depend only
/// on the rank's own push sequence.
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
    /// hand it to the ship step and take the emptied buffer back.
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
    /// handed to the ship step.
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
            "batcher dropped with un-shipped items; call finish"
        );
    }
}

/// Default elements per destination buffer. The paper does not publish its
/// batch size; hundreds-per-destination is the regime where per-message
/// latency stops mattering.
pub const DEFAULT_BATCH: usize = 256;

/// Team-wide bytes of mail one superstep of an [`Exchange`] may post: each
/// rank's share is `SUPERSTEP_BYTES / ranks`, but at least one batch. Items
/// are counted at their in-memory size, so a wide key stages no more memory
/// than a narrow one, and the mail in flight — two supersteps' worth, at
/// most — grows with neither the input nor the rank count. More bytes per
/// superstep buy fewer supersteps with more memory.
pub const SUPERSTEP_BYTES: usize = 8 << 20;

/// Owner-applied batched writes, in supersteps.
///
/// Each rank sends its work through its own [`Outbox`]; a full buffer is
/// billed as one message, as always, and posted to the mailbox of its
/// (source, destination) pair. A write pass runs as the supersteps of
/// [`Team::run_supersteps`](crate::Team::run_supersteps): in superstep
/// `s` every rank first [`deliver`](Self::deliver)s the mail of superstep
/// `s - 1` to itself, sources in rank order, and then [`send`](Self::send)s
/// its next slice of work, returning whether it posted anything; the pass
/// ends after the first superstep in which no rank posted, so S supersteps
/// that post take S + 1 steps. The mailboxes are double buffered by the
/// parity of the superstep, so in one step each mailbox is touched by one
/// rank only: its source writes this superstep's, its destination empties
/// last superstep's.
///
/// A slice ends at the first work unit after which the rank has posted
/// its budget (see [`SUPERSTEP_BYTES`]); items still in the outbox's
/// buffers stay there for the next slice, so slicing adds no message.
///
/// An exchange serves one pass. If a rank fails, the stage aborts by
/// unwinding through the exchange, and the attempt's undelivered mail is
/// dropped with it; outside unwinding, dropping undelivered mail or
/// unshipped items is a bug, asserted in debug builds.
pub struct Exchange<T> {
    topo: Topology,
    /// Bytes of mail one rank may post in one superstep.
    step_bytes: usize,
    /// One mailbox per (parity, source, destination), at
    /// `(parity * ranks + source) * ranks + destination`.
    slots: Vec<Mutex<Vec<T>>>,
    /// Each rank's sending side, indexed by rank.
    senders: Vec<Mutex<Sender<T>>>,
    /// The superstep in which each rank's sender finished, `usize::MAX`
    /// until it has (see [`all_sent_before`](Self::all_sent_before)).
    finished: Vec<AtomicUsize>,
}

/// One rank's sending side of an [`Exchange`], kept across supersteps.
struct Sender<T> {
    outbox: Outbox<T>,
    /// Work units sent so far.
    next: usize,
    /// Every unit sent and every buffer shipped.
    done: bool,
}

/// Lock a mutex the superstep discipline gives to one rank at a time. A
/// held lock here is a broken discipline, not contention to wait out.
fn uncontended<T>(slot: &Mutex<T>) -> MutexGuard<'_, T> {
    slot.try_lock()
        .expect("an exchange mailbox is touched by one rank per superstep")
}

impl<T: Send> Exchange<T> {
    /// An exchange over `topo` shipping batches of `batch` items, billed
    /// at `size_of::<T>()` bytes each (see [`Outbox::new`]).
    pub fn new(topo: Topology, batch: usize) -> Self {
        Self::with_team_bytes(topo, batch, SUPERSTEP_BYTES)
    }

    /// An exchange for upserts into `table`: batches of [`DEFAULT_BATCH`]
    /// entries, billed at the table's `entry_bytes` each.
    pub fn for_table<K, V>(table: &DistHashMap<K, V>) -> Self
    where
        K: Hash + Eq + Send,
        V: Send,
    {
        Self::new(*table.topo(), DEFAULT_BATCH).with_item_bytes(table.entry_bytes())
    }

    /// [`new`](Self::new) with a team-wide budget of `team_bytes` per
    /// superstep.
    fn with_team_bytes(topo: Topology, batch: usize, team_bytes: usize) -> Self {
        let ranks = topo.ranks();
        let batch_bytes = batch.saturating_mul(std::mem::size_of::<T>().max(1));
        Exchange {
            topo,
            step_bytes: (team_bytes / ranks).max(batch_bytes),
            slots: (0..2 * ranks * ranks)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
            senders: (0..ranks)
                .map(|_| {
                    Mutex::new(Sender {
                        outbox: Outbox::new(topo, batch),
                        next: 0,
                        done: false,
                    })
                })
                .collect(),
            finished: (0..ranks).map(|_| AtomicUsize::new(usize::MAX)).collect(),
        }
    }

    /// Override the wire bytes billed per item (see
    /// [`Outbox::with_item_bytes`]); the budget still counts memory.
    pub fn with_item_bytes(mut self, item_bytes: u64) -> Self {
        assert!(item_bytes >= 1, "an item on the wire has at least one byte");
        for sender in &mut self.senders {
            sender.get_mut().outbox.item_bytes = item_bytes;
        }
        self
    }

    /// The mailboxes `src` posts to in superstep `step`, by destination.
    fn row(&self, step: usize, src: usize) -> &[Mutex<Vec<T>>] {
        let ranks = self.topo.ranks();
        let start = ((step % 2) * ranks + src) * ranks;
        &self.slots[start..start + ranks]
    }

    /// Apply the mail posted to `rank` in superstep `step - 1`:
    /// `apply(src, items)` once per source that sent any, in rank order,
    /// each with everything that source posted, in its shipping order.
    /// Whatever `apply` leaves in `items` is dropped, and so is the
    /// mailbox's memory: only mail in flight is staged. Nothing arrives in
    /// superstep 0.
    pub fn deliver<F>(&self, rank: usize, step: usize, mut apply: F)
    where
        F: FnMut(usize, &mut Vec<T>),
    {
        let Some(prev) = step.checked_sub(1) else {
            return;
        };
        for src in 0..self.topo.ranks() {
            let mut mail = std::mem::take(&mut *uncontended(&self.row(prev, src)[rank]));
            if !mail.is_empty() {
                apply(src, &mut mail);
            }
        }
    }

    /// Send `ctx.rank`'s next slice of `units` work units in superstep
    /// `step`: `unit(ctx, i, post)` for each unit `i` from where the last
    /// slice stopped, until the slice has posted its budget or the units
    /// run out; after the last unit every buffer ships. Returns whether
    /// this slice posted anything, which every slice but the last does.
    pub fn send<F>(&self, ctx: &mut RankCtx, step: usize, units: usize, mut unit: F) -> bool
    where
        F: FnMut(&mut RankCtx, usize, &mut Post<'_, T>),
    {
        let mut sender = uncontended(&self.senders[ctx.rank]);
        let Sender { outbox, next, done } = &mut *sender;
        if *done {
            return false;
        }
        let mut post = Post {
            outbox,
            row: self.row(step, ctx.rank),
            posted: 0,
        };
        while *next < units && post.posted < self.step_bytes {
            unit(ctx, *next, &mut post);
            *next += 1;
        }
        if *next == units {
            post.ship_all(ctx);
            *done = true;
            self.finished[ctx.rank].store(step, Ordering::Relaxed);
        }
        post.posted > 0
    }

    /// Whether every rank's sender had finished before superstep `step`.
    /// Asked in `step` after [`deliver`](Self::deliver), a `true` means
    /// this rank now holds all the mail it will ever get, so an owner can
    /// finish its table inside the pass. Every rank gets the same answer in
    /// the same step: a sender that finishes in `step` itself records
    /// `step`, which is not before it, and the earlier records were made
    /// before the barrier that released the step.
    pub fn all_sent_before(&self, step: usize) -> bool {
        // Relaxed: the barrier between supersteps orders every earlier
        // step's store before these loads, and a store racing with them in
        // this step reads as `step` or as unset, neither before `step`.
        (self.finished.iter()).all(|f| f.load(Ordering::Relaxed) < step)
    }

    /// Whether `rank` has sent all its units and shipped every buffer.
    pub fn is_done(&self, rank: usize) -> bool {
        uncontended(&self.senders[rank]).done
    }
}

impl<T> Drop for Exchange<T> {
    fn drop(&mut self) {
        // As for `Outbox`: an aborted stage unwinds through its mail.
        if std::thread::panicking() {
            return;
        }
        debug_assert!(
            self.slots.iter_mut().all(|slot| slot.get_mut().is_empty()),
            "exchange dropped with undelivered mail; run supersteps until none is posted"
        );
    }
}

/// One rank's sending handle for one superstep of an [`Exchange`].
pub struct Post<'a, T> {
    outbox: &'a mut Outbox<T>,
    /// This superstep's mailboxes from this rank, by destination.
    row: &'a [Mutex<Vec<T>>],
    /// Bytes posted this superstep.
    posted: usize,
}

impl<T> Post<'_, T> {
    /// Queue `item` for `dest`; a full buffer ships as one message into
    /// `dest`'s mailbox.
    pub fn push(&mut self, ctx: &mut RankCtx, dest: usize, item: T) {
        let (row, posted) = (self.row, &mut self.posted);
        self.outbox.push(ctx, dest, item, &mut |_, dest, items| {
            post_batch(row, posted, dest, items)
        });
    }

    /// Ship every non-empty buffer: the sender's last shipment. A buffer
    /// moves into its mailbox if that is empty and is appended to it
    /// otherwise, and then every buffer is freed, so a sender that is done
    /// keeps no capacity for P destinations until the pass ends.
    fn ship_all(&mut self, ctx: &mut RankCtx) {
        let posted = &mut self.posted;
        self.outbox.flush_all(ctx, &mut |_, dest, items| {
            *posted += items.len() * std::mem::size_of::<T>();
            let mut mailbox = uncontended(&self.row[dest]);
            if mailbox.is_empty() {
                std::mem::swap(&mut *mailbox, items);
            } else {
                mailbox.append(items);
            }
        });
        (self.outbox.buffers.iter_mut()).for_each(|items| *items = Vec::new());
    }
}

/// The ship step of a [`Post`]: move a billed batch into its mailbox.
fn post_batch<T>(row: &[Mutex<Vec<T>>], posted: &mut usize, dest: usize, items: &mut Vec<T>) {
    *posted += items.len() * std::mem::size_of::<T>();
    uncontended(&row[dest]).append(items);
}

/// A per-rank buffer set for batched upserts into a [`DistHashMap`],
/// applied by the **sender**: an [`Outbox`] whose ship step locks the
/// owner's partition and runs [`DistHashMap::merge_batch`] before `push`
/// returns. No pipeline phase writes this way any more (they use an
/// [`Exchange`]); the type remains for the benchmark's aggregation-layer
/// microbench, which times this path.
///
/// One `AggregatingStores` is created per acting rank per phase (it is not
/// shared between ranks). Call [`push`](Self::push) for each update and
/// consume the aggregator with [`finish`](Self::finish) (or at least
/// [`flush_all`](Self::flush_all)) before the phase ends; un-flushed
/// updates are lost (`finish` asserts in all builds, and the outbox's
/// `debug_assert` in `Drop` catches aggregators dropped unflushed at phase
/// end).
///
/// Merge application order across ranks' batches depends on the OS-thread
/// schedule, and two workers may wait on one partition's lock.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CommStats, Team, Topology};
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
        let dht: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mut agg_ctx = RankCtx::new(0, topo);
        let mut agg = AggregatingStores::with_batch(&dht, add, 128);
        let mut reference: HashMap<u64, u32> = HashMap::new();
        for k in 0..n {
            agg.push(&mut agg_ctx, k, 1);
            *reference.entry(k).or_default() += 1;
        }
        agg.finish(&mut agg_ctx);

        let dht = dht.freeze();
        assert_eq!(dht.len(), reference.len());
        assert!(dht.iter().all(|(k, v)| reference[k] == *v));
        // Sent one by one, every update for another rank is a message of
        // one entry.
        let remote = reference.keys().filter(|k| dht.owner(k) != 0).count() as u64;
        let agg_msgs = agg_ctx.stats.remote_msgs();
        assert!(
            agg_msgs * 32 < remote,
            "batching must slash messages: {agg_msgs} vs {remote}"
        );
        // Bandwidth is NOT saved — every entry's bytes are billed.
        let agg_bytes = agg_ctx.stats.onnode_bytes + agg_ctx.stats.offnode_bytes;
        assert_eq!(agg_bytes, remote * dht.entry_bytes());
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
        let landed = |ctx: &mut RankCtx| {
            let got = dht.multi_get(ctx, &(0..9).collect::<Vec<u64>>());
            got.iter().filter(|v| v.is_some()).count()
        };
        assert_eq!(landed(&mut ctx), 5);
        for k in 5..9u64 {
            agg.push(&mut ctx, k, 1);
        }
        agg.finish(&mut ctx);
        assert_eq!(landed(&mut ctx), 9);
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

    /// Every rank sends `items` single-item units; unit `i` of rank `r`
    /// goes to destination `(i * 3 + r) % ranks`, keyed `i % keys`, and
    /// carries the token `"r.i "`.
    fn token(rank: usize, i: usize, ranks: usize, keys: u64) -> (usize, u64, String) {
        (
            (i * 3 + rank) % ranks,
            i as u64 % keys,
            format!("{rank}.{i} "),
        )
    }

    /// An append-merge pass through an exchange with a team budget of
    /// `team_bytes`; returns the table, each rank's counters and, for
    /// every delivery, `(step, src, dest, bytes)`.
    #[allow(clippy::type_complexity)]
    fn append_pass(
        threads: usize,
        team_bytes: usize,
        items: usize,
    ) -> (
        Vec<(u64, String)>,
        Vec<CommStats>,
        Vec<(usize, usize, usize, usize)>,
    ) {
        let topo = Topology::new(8, 4);
        let team = Team::new(topo).with_os_threads(threads);
        let table: DistHashMap<u64, String> = DistHashMap::with_owner(topo, |k| *k as usize % 8);
        let mail: Exchange<(u64, String)> = Exchange::with_team_bytes(topo, 4, team_bytes);
        let deliveries = Mutex::new(Vec::new());
        let stats = team.run_supersteps("test/append", |ctx, step| {
            let rank = ctx.rank;
            mail.deliver(rank, step, |src, entries| {
                let bytes = entries.len() * std::mem::size_of::<(u64, String)>();
                deliveries.lock().push((step, src, rank, bytes));
                table.merge_batch(rank, entries.drain(..), |a, b| a.push_str(&b));
            });
            mail.send(ctx, step, items, |ctx, i, post| {
                let (_, key, text) = token(ctx.rank, i, 8, 40);
                post.push(ctx, key as usize % 8, (key, text));
            })
        });
        let mut entries: Vec<(u64, String)> = (table.freeze().iter())
            .map(|(&k, text)| (k, text.clone()))
            .collect();
        entries.sort_unstable();
        let mut deliveries = deliveries.into_inner();
        deliveries.sort_unstable();
        (entries, stats, deliveries)
    }

    #[test]
    fn owners_apply_sources_in_rank_order() {
        // One superstep: the non-commutative append equals a sequential
        // loop over the source ranks, at every thread count.
        let mut want: HashMap<u64, String> = HashMap::new();
        for rank in 0..8 {
            for i in 0..100 {
                let (_, key, text) = token(rank, i, 8, 40);
                want.entry(key).or_default().push_str(&text);
            }
        }
        let mut want: Vec<(u64, String)> = want.into_iter().collect();
        want.sort_unstable();
        for threads in [1, 2, 4] {
            let (got, stats, _) = append_pass(threads, SUPERSTEP_BYTES, 100);
            assert_eq!(got, want, "{threads} threads");
            assert!(stats.iter().all(|s| s.barriers == 2), "send, then apply");
        }

        // Many supersteps: each source's tokens still land in its push
        // order, and the table does not depend on the threads.
        let serial = append_pass(1, 8 * 256, 600);
        for threads in [2, 4] {
            assert_eq!(append_pass(threads, 8 * 256, 600).0, serial.0);
        }
        for (_, text) in &serial.0 {
            let mut last = [None::<usize>; 8];
            for tok in text.split_whitespace() {
                let (rank, i) = tok.split_once('.').unwrap();
                let (rank, i): (usize, usize) = (rank.parse().unwrap(), i.parse().unwrap());
                assert!(last[rank] < Some(i), "{tok} after {:?}", last[rank]);
                last[rank] = Some(i);
            }
        }
    }

    #[test]
    fn staged_bytes_stay_within_the_budget_plus_a_batch_per_destination() {
        let team_bytes = 8 * 1024;
        let (_, stats, deliveries) = append_pass(2, team_bytes, 2000);
        let item = std::mem::size_of::<(u64, String)>();
        let step_bytes = team_bytes / 8;
        let bound = step_bytes + 8 * 4 * item;
        let mut posted: HashMap<(usize, usize), usize> = HashMap::new();
        for &(step, src, _, bytes) in &deliveries {
            *posted.entry((step, src)).or_default() += bytes;
        }
        assert!(
            posted.values().all(|&b| b <= bound),
            "{posted:?} over {bound}"
        );
        let steps = deliveries.iter().map(|d| d.0).max().unwrap();
        assert!(steps > 10, "a small budget takes many supersteps: {steps}");
        // Phase s delivers superstep s - 1's mail; the last one posts none.
        assert!(stats.iter().all(|s| s.barriers == steps as u64 + 1));
    }

    #[test]
    fn owners_finish_inside_the_pass_once_every_sender_has() {
        // Each owner keeps its mail and sums it in the step in which
        // `all_sent_before` first holds: by then it has every item, and the
        // pass takes as many steps as one that stops when nothing is posted.
        let topo = Topology::new(8, 4);
        let pass = |threads: usize, finish_inside: bool| {
            let team = Team::new(topo).with_os_threads(threads);
            let mail: Exchange<u64> = Exchange::with_team_bytes(topo, 4, 8 * 64);
            let inbox: Vec<Mutex<Vec<u64>>> = (0..8).map(|_| Mutex::default()).collect();
            let sums: Vec<Mutex<Option<u64>>> = (0..8).map(|_| Mutex::default()).collect();
            let stats = team.run_supersteps("test/finish-inside", |ctx, step| {
                let rank = ctx.rank;
                mail.deliver(rank, step, |_, items| inbox[rank].lock().append(items));
                let posted = mail.send(ctx, step, 300, |ctx, i, post| {
                    post.push(ctx, (i + ctx.rank) % 8, i as u64)
                });
                if !finish_inside {
                    return posted;
                }
                if !mail.all_sent_before(step) {
                    return true;
                }
                let sum = inbox[rank].lock().iter().sum();
                assert!(sums[rank].lock().replace(sum).is_none(), "finished twice");
                false
            });
            let sums: Option<Vec<u64>> = sums.into_iter().map(Mutex::into_inner).collect();
            (stats[0].barriers, sums.map(|s| s.iter().sum::<u64>()))
        };
        let (steps, _) = pass(1, false);
        assert!(steps > 4, "several supersteps: {steps}");
        for threads in [1, 2, 4] {
            let want = 8 * (0..300).sum::<u64>();
            assert_eq!(
                pass(threads, true),
                (steps, Some(want)),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn a_done_sender_keeps_no_buffer() {
        // Full batches reuse their buffer; the last shipment moves each
        // one into its mailbox or frees it, and what arrives is the same.
        let topo = Topology::new(4, 2);
        let team = Team::new(topo).with_os_threads(2);
        let mail: Exchange<u64> = Exchange::with_team_bytes(topo, 8, 4 * 128);
        let got = Mutex::new(0u64);
        team.run_supersteps("test/free", |ctx, step| {
            mail.deliver(ctx.rank, step, |_, items| {
                *got.lock() += items.iter().sum::<u64>();
            });
            let posted = mail.send(ctx, step, 203, |ctx, i, post| {
                post.push(ctx, i % 4, i as u64)
            });
            let sender = uncontended(&mail.senders[ctx.rank]);
            let kept = sender.outbox.buffers.iter().any(|b| b.capacity() > 0);
            assert_eq!(kept, !sender.done, "step {step}");
            posted
        });
        assert_eq!(got.into_inner(), 4 * (0..203).sum::<u64>());
    }

    #[test]
    fn exchange_bills_like_the_sender_applied_outbox() {
        let topo = Topology::new(8, 4);
        let team = Team::new(topo).with_os_threads(2);
        let key = |rank: usize, i: u64| (i * 13 + rank as u64 * 5) % 300;
        let sender_side: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let (_, mut want) = team.run_named("test/sender-applied", |ctx| {
            let mut outbox: Outbox<(u64, u32)> = Outbox::new(topo, 16);
            let mut apply = |_: &mut RankCtx, dest: usize, items: &mut Vec<(u64, u32)>| {
                sender_side.merge_batch(dest, items.drain(..), |a, b| *a += b)
            };
            for i in 0..500 {
                let k = key(ctx.rank, i);
                outbox.push(ctx, sender_side.owner(&k), (k, 1), &mut apply);
            }
            outbox.finish(ctx, &mut apply);
        });
        sender_side.drain_service_into(&mut want);

        let owner_side: DistHashMap<u64, u32> = DistHashMap::new(topo);
        let mail: Exchange<(u64, u32)> = Exchange::with_team_bytes(topo, 16, 8 * 512);
        let mut got = team.run_supersteps("test/owner-applied", |ctx, step| {
            let rank = ctx.rank;
            mail.deliver(rank, step, |_, items| {
                owner_side.merge_batch(rank, items.drain(..), |a, b| *a += b)
            });
            mail.send(ctx, step, 500, |ctx, i, post| {
                let k = key(ctx.rank, i as u64);
                post.push(ctx, owner_side.owner(&k), (k, 1));
            })
        });
        owner_side.drain_service_into(&mut got);

        let billed = |s: &CommStats| {
            let msgs = (s.local_ops, s.onnode_msgs, s.offnode_msgs);
            (msgs, s.onnode_bytes, s.offnode_bytes, s.service_ops)
        };
        assert_eq!(
            got.iter().map(billed).collect::<Vec<_>>(),
            want.iter().map(billed).collect::<Vec<_>>()
        );
        assert!(got[0].barriers > 2, "the pass took several supersteps");
        let sorted = |t: DistHashMap<u64, u32>| {
            let mut e: Vec<(u64, u32)> = t.freeze().iter().map(|(&k, &v)| (k, v)).collect();
            e.sort_unstable();
            e
        };
        assert_eq!(sorted(owner_side), sorted(sender_side));
    }

    #[test]
    #[should_panic(expected = "exchange dropped with undelivered mail")]
    #[cfg(debug_assertions)]
    fn dropping_undelivered_mail_panics_in_debug() {
        let topo = Topology::new(2, 2);
        let mail: Exchange<u64> = Exchange::new(topo, 4);
        let mut ctx = RankCtx::new(0, topo);
        mail.send(&mut ctx, 0, 1, |ctx, _, post| post.push(ctx, 1, 7));
        drop(mail); // superstep 1, which would deliver it, never ran
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
