//! Property tests for the streaming sketches.

use hipmer_dna::mix64;
use hipmer_sketch::{BloomFilter, CountHistogram, HyperLogLog, MisraGries};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

/// The summary [`MisraGries`] must hold, counter for counter, spelled over
/// a `HashMap`: weighted observes that decrement by `min(weight, smallest
/// counter)` when full, and merges that prune by the (θ+1)-th count.
struct Model {
    theta: usize,
    counters: HashMap<u64, u64>,
}

impl Model {
    fn observe(&mut self, x: u64, w: u64) {
        let mut rem = w;
        while rem > 0 {
            if let Some(c) = self.counters.get_mut(&x) {
                *c += rem;
                return;
            }
            if self.counters.len() < self.theta {
                self.counters.insert(x, rem);
                return;
            }
            let dec = rem.min(*self.counters.values().min().unwrap());
            self.counters.retain(|_, c| {
                *c -= dec;
                *c > 0
            });
            rem -= dec;
        }
    }

    fn merge(&mut self, other: &Model) {
        for (&x, &c) in &other.counters {
            *self.counters.entry(x).or_insert(0) += c;
        }
        if self.counters.len() > self.theta {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cutoff = counts[self.theta];
            self.counters.retain(|_, c| {
                *c = c.saturating_sub(cutoff);
                *c > 0
            });
        }
    }
}

fn counters(mg: &MisraGries<u64>) -> HashMap<u64, u64> {
    mg.items().map(|(&k, c)| (k, c)).collect()
}

proptest! {
    #[test]
    fn misra_gries_equals_the_hashmap_model(
        s1 in prop::collection::vec((0u64..120, 1u64..40), 1..600),
        s2 in prop::collection::vec((0u64..120, 1u64..40), 1..600),
        unit_weights in any::<bool>(),
        theta in 1usize..24,
    ) {
        // 120 keys over at most 64 slots: probes collide, the table
        // overflows θ, unit streams decrement again and again, and weights
        // up to 39 exceed the smallest counter.
        let mut parts = Vec::new();
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for stream in [&s1, &s2] {
            let mut mg = MisraGries::new(theta);
            let mut model = Model { theta, counters: HashMap::new() };
            for &(x, w) in stream {
                let w = if unit_weights { 1 } else { w };
                if w == 1 {
                    mg.observe(x);
                } else {
                    mg.observe_weighted(x, w);
                }
                model.observe(x, w);
                *truth.entry(x).or_insert(0) += w;
                prop_assert_eq!(&counters(&mg), &model.counters);
            }
            parts.push((mg, model));
        }
        let (b, b_model) = parts.pop().unwrap();
        let (mut a, mut a_model) = parts.pop().unwrap();
        a.merge(&b);
        a_model.merge(&b_model);
        prop_assert_eq!(&counters(&a), &a_model.counters);
        // The merged summary keeps f − N/θ ≤ f' ≤ f over both streams.
        prop_assert_eq!(a.stream_len(), truth.values().sum::<u64>());
        let bound = a.error_bound();
        for (&x, &f) in &truth {
            let reported = counters(&a).get(&x).copied().unwrap_or(0);
            prop_assert!(reported <= f && reported + bound >= f, "{x}: {reported} vs {f}");
        }
    }

    #[test]
    fn misra_gries_holds_the_model_whatever_its_table_size(
        distinct in 1u64..3_000,
        s1 in prop::collection::vec((any::<u64>(), 1u64..8), 1..3_000),
        s2 in prop::collection::vec((any::<u64>(), 1u64..8), 1..3_000),
        theta in 1usize..4_000,
        min_count in 1u64..6,
    ) {
        // θ falls below and above the `distinct` keys the streams draw
        // from, so a table grows from its first slots up to what its live
        // counters need, or past 4,096 slots straight to the full 2θ; none
        // of that may show in what it holds.
        let heavy = |mg: &MisraGries<u64>| -> HashMap<u64, u64> {
            mg.heavy_hitters(min_count).into_iter().collect()
        };
        let model_heavy = |m: &Model| -> HashMap<u64, u64> {
            m.counters.iter().filter(|(_, &c)| c >= min_count).map(|(&x, &c)| (x, c)).collect()
        };
        let mut parts = Vec::new();
        for stream in [&s1, &s2] {
            let mut mg = MisraGries::new(theta);
            let mut model = Model { theta, counters: HashMap::new() };
            for &(x, w) in stream {
                let x = mix64(x % distinct);
                if w == 1 {
                    mg.observe(x);
                } else {
                    mg.observe_weighted(x, w);
                }
                model.observe(x, w);
            }
            prop_assert_eq!(&counters(&mg), &model.counters);
            prop_assert_eq!(heavy(&mg), model_heavy(&model));
            parts.push((mg, model));
        }
        let (b, b_model) = parts.pop().unwrap();
        let (mut a, mut a_model) = parts.pop().unwrap();
        a.merge(&b);
        a_model.merge(&b_model);
        prop_assert_eq!(&counters(&a), &a_model.counters);
        prop_assert_eq!(heavy(&a), model_heavy(&a_model));
    }

    #[test]
    fn bloom_never_false_negative(keys in prop::collection::vec(any::<u64>(), 1..2000)) {
        let mut f = BloomFilter::with_rate(keys.len(), 0.02);
        for &k in &keys {
            f.insert(mix64(k));
        }
        for &k in &keys {
            prop_assert!(f.contains(mix64(k)));
        }
    }

    #[test]
    fn bloom_second_insert_reports_seen(keys in prop::collection::vec(any::<u64>(), 1..500)) {
        let mut f = BloomFilter::with_rate(keys.len() * 2, 0.01);
        for &k in &keys {
            f.insert(mix64(k));
        }
        for &k in &keys {
            prop_assert!(f.insert(mix64(k)), "re-insert of {k} must report seen");
        }
    }

    #[test]
    fn misra_gries_counts_are_lower_bounds(
        stream in prop::collection::vec(0u64..50, 1..2000),
        theta in 2usize..64,
    ) {
        let mut mg = MisraGries::new(theta);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &stream {
            mg.observe(x);
            *truth.entry(x).or_insert(0) += 1;
        }
        let bound = mg.error_bound();
        for (k, reported) in mg.items() {
            let t = truth[k];
            prop_assert!(reported <= t, "{k}: {reported} > true {t}");
            prop_assert!(reported + bound >= t, "{k}: undercount beyond N/theta");
        }
        // Completeness: anything with true count > N/theta is tracked.
        for (k, &t) in truth.iter() {
            if t > bound {
                prop_assert!(mg.items().any(|(x, _)| x == k), "missed heavy {k}");
            }
        }
    }

    #[test]
    fn misra_gries_equals_the_textbook_model(
        stream in prop::collection::vec(0u64..40, 1..3000),
        theta in 1usize..48,
    ) {
        // The textbook algorithm, over an ordered map: a tracked item counts
        // up, an untracked one takes a free slot, and with no slot free
        // every counter steps down and the zeros leave.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut truth: BTreeMap<u64, u64> = BTreeMap::new();
        let mut mg = MisraGries::new(theta);
        let mut twin = MisraGries::new(theta);
        for &x in &stream {
            mg.observe(x);
            twin.observe(x);
            *truth.entry(x).or_insert(0) += 1;
            if let Some(c) = model.get_mut(&x) {
                *c += 1;
            } else if model.len() < theta {
                model.insert(x, 1);
            } else {
                model.retain(|_, c| {
                    *c -= 1;
                    *c > 0
                });
            }
        }
        let counters: BTreeMap<u64, u64> = mg.items().map(|(k, c)| (*k, c)).collect();
        prop_assert_eq!(&counters, &model);
        prop_assert_eq!(mg.stream_len(), stream.len() as u64);
        let bound = mg.error_bound();
        for (k, &reported) in &counters {
            prop_assert!(reported <= truth[k] && reported + bound >= truth[k]);
        }
        // Same stream, same report, element for element.
        prop_assert_eq!(mg.heavy_hitters(1), twin.heavy_hitters(1));
        let by_count_then_key: Vec<(u64, u64)> = {
            let mut v: Vec<(u64, u64)> = model.into_iter().collect();
            v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
            v
        };
        prop_assert_eq!(mg.heavy_hitters(1), by_count_then_key);
    }

    #[test]
    fn misra_gries_weighted_observe_is_repeated_observe(
        stream in prop::collection::vec((0u64..20, 0u64..6), 1..400),
        theta in 1usize..16,
    ) {
        let mut weighted = MisraGries::new(theta);
        let mut repeated = MisraGries::new(theta);
        for &(x, w) in &stream {
            weighted.observe_weighted(x, w);
            for _ in 0..w {
                repeated.observe(x);
            }
        }
        prop_assert_eq!(weighted.stream_len(), repeated.stream_len());
        prop_assert_eq!(weighted.heavy_hitters(0), repeated.heavy_hitters(0));
    }

    #[test]
    fn misra_gries_merge_preserves_guarantee(
        s1 in prop::collection::vec(0u64..30, 1..800),
        s2 in prop::collection::vec(0u64..30, 1..800),
        theta in 4usize..32,
    ) {
        let mut a = MisraGries::new(theta);
        let mut b = MisraGries::new(theta);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &x in &s1 { a.observe(x); *truth.entry(x).or_insert(0) += 1; }
        for &x in &s2 { b.observe(x); *truth.entry(x).or_insert(0) += 1; }
        a.merge(&b);
        prop_assert_eq!(a.stream_len(), (s1.len() + s2.len()) as u64);
        // Counts stay lower bounds, short of the truth by at most N/θ.
        let bound = a.error_bound();
        for (k, reported) in a.items() {
            prop_assert!(reported <= truth[k]);
        }
        for (k, &t) in &truth {
            let reported = a.items().find(|(x, _)| *x == k).map_or(0, |(_, c)| c);
            prop_assert!(reported + bound >= t, "{k}: {reported} + {bound} < {t}");
        }
    }

    #[test]
    fn hll_estimate_scales_with_cardinality(n in 100u64..20_000) {
        let mut h = HyperLogLog::new(12);
        for x in 0..n {
            h.observe(mix64(x));
        }
        let est = h.estimate();
        let err = (est - n as f64).abs() / n as f64;
        prop_assert!(err < 0.15, "n={n} est={est}");
    }

    #[test]
    fn histogram_merge_commutes(
        v1 in prop::collection::vec(0u64..64, 0..300),
        v2 in prop::collection::vec(0u64..64, 0..300),
    ) {
        let mut a = CountHistogram::new(64);
        let mut b = CountHistogram::new(64);
        for &x in &v1 { a.record(x); }
        for &x in &v2 { b.record(x); }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn histogram_quantiles_monotone(v in prop::collection::vec(0u64..100, 1..500)) {
        let mut h = CountHistogram::new(100);
        for &x in &v { h.record(x); }
        let q25 = h.quantile(0.25).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q75 = h.quantile(0.75).unwrap();
        prop_assert!(q25 <= q50 && q50 <= q75);
    }
}
