//! Property-based contracts of the multi-probe prefix index against the
//! pinned reference scans.
//!
//! Three contracts (module docs of `index` for the proofs):
//!
//! * **exact mode** (`probe_budget = None`) is bitwise identical to the PR-2
//!   per-query heap scan, including `(distance, index)` tie-breaks — the
//!   generators force tiny widths (constant distance collisions), multi-word
//!   codes (`L > 64`), `k ≥ N`, shuffled non-contiguous global ids, and
//!   requested prefix widths wider than the code. Exact mode has two ways to
//!   answer a query — probe to the exact cut, or spill into the blocked
//!   sweep — so the seeded shards at the bottom are large enough to take
//!   each (uniform codes spill, clustered codes must not, a mid-training
//!   index with dead rows and a delta region does both in one batch) and
//!   assert through [`PrefixIndex::topk_counted`] that it was taken;
//! * **budgeted mode** has recall monotone non-decreasing in the probe
//!   budget, and saturates to the exact answer once the budget covers every
//!   occupied bucket;
//! * **incremental upserts** leave the index answering exactly like a fresh
//!   build over the final codes, whatever mix of inserts and overwrites (and
//!   however many delta rebuilds) produced it.

use parmac_hash::BinaryCodes;
use parmac_retrieval::search::reference;
use parmac_retrieval::PrefixIndex;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A database, a query batch (same width), a `k` that may exceed `N`, and a
/// requested prefix width that may exceed the code width. Widths up to 130
/// bits span one to three packed words.
fn instance() -> impl Strategy<Value = (Vec<Vec<bool>>, Vec<Vec<bool>>, usize, usize)> {
    (1usize..40, 1usize..130, 1usize..5).prop_flat_map(|(n, l, b)| {
        (
            prop::collection::vec(prop::collection::vec(any::<bool>(), l), n),
            prop::collection::vec(prop::collection::vec(any::<bool>(), l), b),
            1usize..(2 * n + 2),
            1usize..20,
        )
    })
}

/// Shuffled-looking distinct global ids (coprime stride walk), as a shard
/// looks after streaming.
fn stride_ids(n: usize, seed: usize) -> Vec<usize> {
    (0..n).map(|i| (i * 7919 + seed) % 99991).collect()
}

/// Fraction of a query's exact top-k hits present in the budgeted answer.
fn recall(budgeted: &[(u32, usize)], exact: &[(u32, usize)]) -> f64 {
    if exact.is_empty() {
        return 1.0;
    }
    let hit = exact.iter().filter(|e| budgeted.contains(e)).count();
    hit as f64 / exact.len() as f64
}

/// `n` uniform random codes: the 10th neighbour of a 64-bit query sits at
/// distance ≈ 20, beyond any prefix width, so no bucket can be ruled out.
fn uniform_codes(n: usize, bits: usize, rng: &mut SmallRng) -> BinaryCodes {
    let rows: Vec<Vec<bool>> = (0..n)
        .map(|_| (0..bits).map(|_| rng.gen_bool(0.5)).collect())
        .collect();
    BinaryCodes::from_bools(&rows)
}

/// `n` near-duplicates of `centers` (each bit flipped with probability
/// 0.02): what a trained hash makes of clustered data, where probing prunes.
fn clustered_codes(n: usize, centers: &BinaryCodes, rng: &mut SmallRng) -> BinaryCodes {
    let rows: Vec<Vec<bool>> = (0..n)
        .map(|_| {
            let c = rng.gen_range(0..centers.len());
            (0..centers.n_bits())
                .map(|b| centers.bit(c, b) ^ rng.gen_bool(0.02))
                .collect()
        })
        .collect();
    BinaryCodes::from_bools(&rows)
}

/// The first `n` rows of `codes`, then all of `rest`.
fn head_then(codes: &BinaryCodes, n: usize, rest: &BinaryCodes) -> BinaryCodes {
    let mut all = BinaryCodes::zeros(0, codes.n_bits());
    for row in 0..n {
        all.push_code_from(codes, row);
    }
    all.append_codes(rest);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn uniform_codes_spill_into_the_sweep_and_stay_exact(seed in 0u64..1_000_000, bits in 60usize..70) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shard = uniform_codes(4000, bits, &mut rng);
        let queries = uniform_codes(9, bits, &mut rng);
        let ids = stride_ids(shard.len(), 5);
        let index = PrefixIndex::build(&shard, &ids);
        let (hits, counts) = index.topk_counted(&queries, 0..queries.len(), 10, None);
        prop_assert_eq!(hits, reference::per_query_shard_topk(&shard, &ids, &queries, 10));
        prop_assert_eq!((counts.probed, counts.swept), (0, 9));
        // Each query paid for its own bucket and the one-bit neighbours,
        // then for one pass over the rows — not for every bucket.
        prop_assert!(counts.buckets <= 9 * (1 + index.prefix_bits()));
        prop_assert!(counts.codes >= 9 * shard.len() && counts.codes < 10 * shard.len());
    }

    #[test]
    fn clustered_codes_are_probed_never_swept(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let centers = uniform_codes(40, 64, &mut rng);
        let shard = clustered_codes(4000, &centers, &mut rng);
        // Each query is a centre: its ~100 copies sit in its own bucket and
        // the one-bit neighbours, so the bound is below 2 before the spill
        // rule is first consulted.
        let queries = head_then(&centers, 9, &BinaryCodes::zeros(0, 64));
        let ids = stride_ids(shard.len(), 11);
        let index = PrefixIndex::build(&shard, &ids);
        let (hits, counts) = index.topk_counted(&queries, 0..queries.len(), 10, None);
        prop_assert_eq!(hits, reference::per_query_shard_topk(&shard, &ids, &queries, 10));
        prop_assert_eq!((counts.probed, counts.swept), (9, 0));
        prop_assert!(counts.buckets >= 9 && counts.codes < 9 * shard.len() / 2);
    }

    #[test]
    fn a_mid_training_index_probes_some_queries_and_sweeps_others(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Half the shard clusters, half is uniform; then a Z step rewrites
        // 300 points, most of which change bucket: dead rows in the main
        // storage, a delta region below the recompaction threshold.
        let centers = uniform_codes(20, 64, &mut rng);
        let mut live = clustered_codes(3000, &centers, &mut rng);
        live.append_codes(&uniform_codes(3000, 64, &mut rng));
        let ids = stride_ids(live.len(), 3);
        let mut index = PrefixIndex::build(&live, &ids);
        let rewrites = uniform_codes(300, 64, &mut rng);
        for r in 0..rewrites.len() {
            let row = rng.gen_range(0..live.len());
            live.copy_code_from(row, &rewrites, r);
            index.upsert_code(ids[row], &live, row);
        }
        prop_assert_eq!(index.rebuilds(), 0);
        prop_assert!(index.delta_len() > 200);
        // Queries 0..5 are cluster centres, queries 5..9 resemble nothing.
        let queries = head_then(&centers, 5, &uniform_codes(4, 64, &mut rng));
        let (hits, counts) = index.topk_counted(&queries, 0..queries.len(), 10, None);
        prop_assert_eq!(&hits, &reference::per_query_shard_topk(&live, &ids, &queries, 10));
        prop_assert_eq!((counts.probed, counts.swept), (5, 4));
        // Split across scan workers, each range decides for itself.
        let mut split = index.topk_batched_range(&queries, 0..3, 10, None);
        split.extend(index.topk_batched_range(&queries, 3..9, 10, None));
        prop_assert_eq!(split, hits);
    }

    #[test]
    fn multi_word_codes_spill_unless_k_reaches_the_shard(seed in 0u64..1_000_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let shard = uniform_codes(3000, 130, &mut rng);
        let queries = uniform_codes(4, 130, &mut rng);
        let ids = stride_ids(shard.len(), 17);
        let index = PrefixIndex::build(&shard, &ids);
        let (hits, counts) = index.topk_counted(&queries, 0..queries.len(), 10, None);
        prop_assert_eq!(hits, reference::per_query_shard_topk(&shard, &ids, &queries, 10));
        prop_assert_eq!((counts.probed, counts.swept), (0, 4));
        // k ≥ N: the heap never fills, the bound says nothing, nobody spills.
        for k in [shard.len(), 2 * shard.len()] {
            let (hits, counts) = index.topk_counted(&queries, 0..queries.len(), k, None);
            prop_assert_eq!(hits, reference::per_query_shard_topk(&shard, &ids, &queries, k));
            prop_assert_eq!((counts.probed, counts.swept), (4, 0));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exact_multi_probe_is_bitwise_identical_to_the_reference_scan(
        inst in instance(),
        id_seed in 0usize..1000,
    ) {
        let (db, queries, k, bits) = inst;
        let shard = BinaryCodes::from_bools(&db);
        let queries = BinaryCodes::from_bools(&queries);
        let ids = stride_ids(shard.len(), id_seed);
        let index = PrefixIndex::with_prefix_bits(&shard, &ids, bits);
        prop_assert_eq!(
            index.topk_batched(&queries, k, None),
            reference::per_query_shard_topk(&shard, &ids, &queries, k)
        );
    }

    #[test]
    fn budgeted_recall_is_monotone_and_saturates(
        inst in instance(),
        budget_lo in 0usize..6,
        budget_step in 0usize..6,
    ) {
        let (db, queries, k, bits) = inst;
        let shard = BinaryCodes::from_bools(&db);
        let queries = BinaryCodes::from_bools(&queries);
        let ids: Vec<usize> = (0..shard.len()).collect();
        let index = PrefixIndex::with_prefix_bits(&shard, &ids, bits);
        let exact = index.topk_batched(&queries, k, None);
        let lo = index.topk_batched(&queries, k, Some(budget_lo));
        let hi = index.topk_batched(&queries, k, Some(budget_lo + budget_step));
        for q in 0..queries.len() {
            let r_lo = recall(&lo[q], &exact[q]);
            let r_hi = recall(&hi[q], &exact[q]);
            prop_assert!(
                r_hi >= r_lo,
                "query {}: recall {} at budget {} fell below {} at budget {}",
                q, r_hi, budget_lo + budget_step, r_lo, budget_lo
            );
        }
        // A budget covering every occupied bucket is exact mode.
        prop_assert_eq!(
            index.topk_batched(&queries, k, Some(index.occupied_buckets())),
            exact
        );
    }

    #[test]
    fn incremental_upserts_match_a_fresh_build(
        inst in instance(),
        overwrites in prop::collection::vec((0usize..40, prop::collection::vec(any::<bool>(), 130)), 0..30),
    ) {
        let (db, queries, k, bits) = inst;
        let l = db[0].len();
        let shard = BinaryCodes::from_bools(&db);
        let queries = BinaryCodes::from_bools(&queries);
        // Seed the index with the first half of the shard, stream in the
        // rest, then overwrite random rows — some moving buckets, some not.
        let half = shard.len() / 2;
        let seed_rows: Vec<Vec<bool>> = db[..half].to_vec();
        let seed_ids: Vec<usize> = (0..half).collect();
        let mut index = if half == 0 {
            PrefixIndex::with_prefix_bits(&BinaryCodes::zeros(0, l), &[], bits)
        } else {
            PrefixIndex::with_prefix_bits(&BinaryCodes::from_bools(&seed_rows), &seed_ids, bits)
        };
        let mut live: Vec<Vec<bool>> = db.clone();
        for row in half..shard.len() {
            index.upsert_code(row, &shard, row);
        }
        for (slot, code) in &overwrites {
            let id = slot % live.len();
            let code: Vec<bool> = code[..l].to_vec();
            let as_f64: Vec<f64> = code.iter().map(|&b| f64::from(u8::from(b))).collect();
            index.upsert(id, &as_f64);
            live[id] = code;
        }
        let final_codes = BinaryCodes::from_bools(&live);
        let ids: Vec<usize> = (0..live.len()).collect();
        let fresh = PrefixIndex::with_prefix_bits(&final_codes, &ids, bits);
        prop_assert_eq!(index.len(), fresh.len());
        prop_assert_eq!(
            index.topk_batched(&queries, k, None),
            fresh.topk_batched(&queries, k, None)
        );
    }
}
