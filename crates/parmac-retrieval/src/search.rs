//! Hamming-space k-nearest-neighbour search over binary codes.
//!
//! The workhorse is [`shard_hamming_topk_batched`]: a batched, cache-blocked
//! top-`k` scan. A batch of `B` queries is answered in one walk over the
//! database, processed in *point-blocks* sized so the block's packed words
//! stay L1-resident while every query streams them (blocks outer, queries
//! per block, points within the block; word-level XOR+popcount on the raw
//! [`code_words`](parmac_hash::BinaryCodes::code_words) layout). Each query
//! keeps a bounded max-heap of its `k` best `(distance, index)` pairs and the
//! running k-th distance as an early-skip bound: once a candidate's partial
//! word count exceeds the bound it can neither enter the heap nor change the
//! result, so the scan skips the heap entirely (and, for multi-word codes,
//! stops counting mid-code). Selection is ordered by `(distance, index)`, so
//! results are identical to sorting the full distance list — the single-query
//! entry point [`hamming_knn`] is routed through the same implementation.
//!
//! For sharded databases (ParMAC machines each keep their shard), the same
//! selection is *mergeable*: [`shard_hamming_topk_batched`] returns each shard's top
//! `k` as `(distance, global index)` pairs and [`merge_shard_topk`] combines
//! per-shard lists into the global top `k`. Because every per-shard list is
//! the exact `(distance, index)`-minimal prefix of its shard, merging the
//! lists and truncating at `k` is exactly the top `k` of the concatenated
//! shards — the invariant `ServerBackend`'s query fan-out relies on. The same
//! argument applies *within* a shard: [`shard_hamming_topk_chunk`] scans a
//! contiguous row range, so a machine can split its shard over several scan
//! workers and merge the per-chunk lists ([`merge_shard_topk_hits`]) into
//! exactly its shard top-`k`.

use parmac_hash::{popcount, BinaryCodes};
use std::collections::BinaryHeap;
use std::ops::Range;

/// Shard words per point-block of the batched scan: 32 KiB, sized to sit in
/// L1 while a whole query batch revisits the block.
const BLOCK_WORDS: usize = 4096;

/// The id no point may carry: [`crate::index`] stamps it on rows its
/// swap-removals leave dead, and [`offer`] — reached only in the already-rare
/// within-bound branch of a scan — drops it, so a dead row costs one popcount.
pub(crate) const DEAD_ID: usize = usize::MAX;

/// One contiguous row range of a code store and the map from its absolute
/// rows to global ids (`None`: rows are their own ids).
pub(crate) type Segment<'a> = (&'a BinaryCodes, Range<usize>, Option<&'a [usize]>);

/// One query's bounded-heap scan over a contiguous row range: the unit every
/// retrieval path — the blocked full scan below and the multi-probe bucket
/// scans of [`crate::index`] — is built from. Holds the reusable distance
/// buffer of the SIMD path so per-range calls do not allocate.
///
/// Both paths visit rows in ascending order and offer `(distance, id)` pairs
/// through the same bounded max-heap, so the selected top-`k` is bitwise
/// identical regardless of the kernel: the SIMD path computes every distance
/// in the range up front ([`popcount::block_hamming`]) and the scalar path
/// skips popcount work the running bound has already disqualified, but a
/// skipped candidate is by definition one that cannot enter the heap.
pub(crate) struct RangeScanner {
    dists: Vec<u32>,
    simd: bool,
}

impl RangeScanner {
    pub(crate) fn new() -> Self {
        RangeScanner {
            dists: Vec::new(),
            simd: popcount::simd_active(),
        }
    }

    /// Scans rows `rows` of `shard_words` (`wpc` packed words per row) for
    /// one query, offering every candidate within the current bound to
    /// `heap` (bounded at `k`) in ascending row order; returns the updated
    /// bound. `global_ids`, when present, maps absolute row indices to global
    /// point ids.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_range(
        &mut self,
        shard_words: &[u64],
        wpc: usize,
        rows: Range<usize>,
        global_ids: Option<&[usize]>,
        query_words: &[u64],
        k: usize,
        heap: &mut BinaryHeap<(u32, usize)>,
        mut bound: u32,
    ) -> u32 {
        let n = rows.len();
        if n == 0 || k == 0 {
            return bound;
        }
        let range_words = &shard_words[rows.start * wpc..rows.end * wpc];
        if self.simd {
            if self.dists.len() < n {
                self.dists.resize(n, 0);
            }
            popcount::block_hamming(range_words, query_words, &mut self.dists[..n]);
            for (j, &dist) in self.dists[..n].iter().enumerate() {
                if dist <= bound {
                    let p = rows.start + j;
                    let id = global_ids.map_or(p, |ids| ids[p]);
                    bound = offer(heap, k, (dist, id), bound);
                }
            }
        } else if let [q_word] = *query_words {
            for (j, &p_word) in range_words.iter().enumerate() {
                let dist = (p_word ^ q_word).count_ones();
                if dist <= bound {
                    let p = rows.start + j;
                    let id = global_ids.map_or(p, |ids| ids[p]);
                    bound = offer(heap, k, (dist, id), bound);
                }
            }
        } else {
            for (j, pw) in range_words.chunks_exact(wpc).enumerate() {
                // Word-level distance with an early exit: popcounts only
                // accumulate, so crossing the bound mid-code already
                // disqualifies the candidate.
                let mut dist = 0u32;
                for w in 0..wpc {
                    dist += (pw[w] ^ query_words[w]).count_ones();
                    if dist > bound {
                        break;
                    }
                }
                if dist <= bound {
                    let p = rows.start + j;
                    let id = global_ids.map_or(p, |ids| ids[p]);
                    bound = offer(heap, k, (dist, id), bound);
                }
            }
        }
        bound
    }
}

/// Drains a bounded max-heap into an ascending `(distance, id)` list.
pub(crate) fn drain_heap(heap: &mut BinaryHeap<(u32, usize)>) -> Vec<(u32, usize)> {
    let mut hits = vec![(0u32, 0usize); heap.len()];
    for slot in hits.iter_mut().rev() {
        *slot = heap.pop().expect("heap holds one entry per slot");
    }
    hits
}

/// Offers `candidate` to a bounded max-heap holding the `k` best pairs and
/// returns the updated early-skip bound (the k-th best distance once the heap
/// is full, `u32::MAX` before). A [`DEAD_ID`] candidate is dropped.
#[inline]
fn offer(
    heap: &mut BinaryHeap<(u32, usize)>,
    k: usize,
    candidate: (u32, usize),
    bound: u32,
) -> u32 {
    if candidate.1 == DEAD_ID {
        bound
    } else if heap.len() < k {
        heap.push(candidate);
        if heap.len() == k {
            heap.peek().expect("heap is full").0
        } else {
            bound
        }
    } else if candidate < *heap.peek().expect("heap is non-empty when full") {
        heap.pop();
        heap.push(candidate);
        heap.peek().expect("heap refilled").0
    } else {
        bound
    }
}

/// The batched, cache-blocked top-`k` kernel over the row ranges `segments`
/// (disjoint, so `(distance, id)` keys stay unique), walked in order as one
/// scan: the blocked full scans pass one, [`crate::index`]'s sweep its delta
/// region and its whole main storage.
///
/// Loop structure: each segment's rows are walked once in point-blocks of
/// [`BLOCK_WORDS`] packed words; within a block every query streams the
/// block's words with its own code, running bound and heap register-/L1-hot.
/// Per query, rows are visited in ascending order — the exact operation
/// sequence of the per-query reference scan — so the output is bitwise
/// identical to [`reference::per_query_shard_topk`] on the same rows.
pub(crate) fn batched_topk(
    scanner: &mut RangeScanner,
    segments: &[Segment<'_>],
    queries: &BinaryCodes,
    k: usize,
) -> Vec<Vec<(u32, usize)>> {
    let k = k.min(segments.iter().map(|(_, rows, _)| rows.len()).sum());
    let b = queries.len();
    if k == 0 || b == 0 {
        return vec![Vec::new(); b];
    }
    let wpc = queries.words_per_code();
    let query_words = queries.as_words();
    let mut heaps: Vec<BinaryHeap<(u32, usize)>> =
        (0..b).map(|_| BinaryHeap::with_capacity(k)).collect();
    // Per-query early-skip bound: the current k-th (worst kept) distance,
    // `u32::MAX` until the heap has k entries.
    let mut bounds: Vec<u32> = vec![u32::MAX; b];
    let block_points = (BLOCK_WORDS / wpc).max(1);
    for (shard, rows, global_ids) in segments {
        debug_assert_eq!(wpc, shard.words_per_code());
        let mut block_start = rows.start;
        while block_start < rows.end {
            let block_end = (block_start + block_points).min(rows.end);
            for (q, heap) in heaps.iter_mut().enumerate() {
                let qw = &query_words[q * wpc..(q + 1) * wpc];
                bounds[q] = scanner.scan_range(
                    shard.as_words(),
                    wpc,
                    block_start..block_end,
                    *global_ids,
                    qw,
                    k,
                    heap,
                    bounds[q],
                );
            }
            block_start = block_end;
        }
    }
    heaps
        .into_iter()
        .map(|mut heap| drain_heap(&mut heap))
        .collect()
}

fn assert_query_shapes(shard: &BinaryCodes, queries: &BinaryCodes, k: usize) {
    assert_eq!(
        shard.n_bits(),
        queries.n_bits(),
        "database and query codes must have the same width"
    );
    assert!(k > 0, "k must be positive");
}

/// For each query code, returns the indices of the `k` database codes with the
/// smallest Hamming distance, closest first (ties broken by index). Runs on
/// the batched, cache-blocked kernel ([`shard_hamming_topk_batched`]); a
/// one-query batch is simply `B = 1`.
///
/// # Panics
///
/// Panics if the code widths differ or `k == 0`.
pub fn hamming_knn(database: &BinaryCodes, queries: &BinaryCodes, k: usize) -> Vec<Vec<usize>> {
    assert_query_shapes(database, queries, k);
    let whole = [(database, 0..database.len(), None)];
    batched_topk(&mut RangeScanner::new(), &whole, queries, k)
        .into_iter()
        .map(|hits| hits.into_iter().map(|(_, i)| i).collect())
        .collect()
}

/// Batched per-shard top-`k`: for each query, the `k` codes of `shard` (a
/// database fragment whose row `i` is the code of global point
/// `global_ids[i]`) with the smallest Hamming distance, as `(distance, global
/// index)` pairs sorted ascending. One cache-blocked walk over the shard
/// answers the whole query batch (see the module docs for the loop
/// structure). The per-shard lists of several disjoint shards can be combined
/// with [`merge_shard_topk`] into exactly the global top `k`.
///
/// # Panics
///
/// Panics if the code widths differ, `k == 0`, or `global_ids` does not have
/// one entry per shard code. `usize::MAX` is not a point id: the scan
/// reserves it for dead rows and skips it.
pub fn shard_hamming_topk_batched(
    shard: &BinaryCodes,
    global_ids: &[usize],
    queries: &BinaryCodes,
    k: usize,
) -> Vec<Vec<(u32, usize)>> {
    assert_query_shapes(shard, queries, k);
    assert_eq!(
        global_ids.len(),
        shard.len(),
        "one global id per shard code"
    );
    let whole = [(shard, 0..shard.len(), Some(global_ids))];
    batched_topk(&mut RangeScanner::new(), &whole, queries, k)
}

/// Top-`k` over one contiguous row range of a shard. `global_ids` is the
/// *whole* shard's id list (indexed by absolute row, like the shard itself);
/// only rows in `rows` are scanned. Per-chunk lists over a partition of the shard's rows merge via
/// [`merge_shard_topk_hits`] into exactly the shard's top-`k`.
///
/// # Panics
///
/// Panics if the code widths differ, `k == 0`, `global_ids` does not have one
/// entry per shard code, or `rows` exceeds the shard.
pub fn shard_hamming_topk_chunk(
    shard: &BinaryCodes,
    rows: Range<usize>,
    global_ids: &[usize],
    queries: &BinaryCodes,
    k: usize,
) -> Vec<Vec<(u32, usize)>> {
    assert_query_shapes(shard, queries, k);
    assert_eq!(
        global_ids.len(),
        shard.len(),
        "one global id per shard code"
    );
    assert!(rows.end <= shard.len(), "row range exceeds the shard");
    let chunk = [(shard, rows, Some(global_ids))];
    batched_topk(&mut RangeScanner::new(), &chunk, queries, k)
}

/// Merges per-shard (or per-chunk) top-`k` lists — each sorted ascending by
/// `(distance, global index)`, as produced by [`shard_hamming_topk_batched`]
/// — into the global top `k` for one query, keeping the distances. Shards
/// must be disjoint, so `(distance, index)` keys are unique and the merge is
/// deterministic.
pub fn merge_shard_topk_hits(per_shard: &[Vec<(u32, usize)>], k: usize) -> Vec<(u32, usize)> {
    // k-way merge by a min-heap over (head element, shard, offset); Reverse
    // turns the max-heap into a min-heap.
    use std::cmp::Reverse;
    type MergeHead = Reverse<((u32, usize), usize, usize)>;
    let mut heap: BinaryHeap<MergeHead> = per_shard
        .iter()
        .enumerate()
        .filter(|(_, hits)| !hits.is_empty())
        .map(|(s, hits)| Reverse((hits[0], s, 0)))
        .collect();
    let mut merged = Vec::with_capacity(k);
    while merged.len() < k {
        let Some(Reverse((hit, shard, offset))) = heap.pop() else {
            break;
        };
        merged.push(hit);
        if let Some(&next) = per_shard[shard].get(offset + 1) {
            heap.push(Reverse((next, shard, offset + 1)));
        }
    }
    merged
}

/// Merges per-shard top-`k` lists into the global top `k` *indices* for one
/// query (see [`merge_shard_topk_hits`] for the distance-keeping variant).
pub fn merge_shard_topk(per_shard: &[Vec<(u32, usize)>], k: usize) -> Vec<usize> {
    merge_shard_topk_hits(per_shard, k)
        .into_iter()
        .map(|(_, i)| i)
        .collect()
}

/// The pre-optimisation k-NN reference: full `O(N log N)` sort per query.
/// Kept as the single baseline implementation for the equivalence tests and
/// the before/after micro-benchmarks; not part of the public API.
#[doc(hidden)]
pub fn full_sort_knn(database: &BinaryCodes, queries: &BinaryCodes, k: usize) -> Vec<Vec<usize>> {
    let k = k.min(database.len());
    (0..queries.len())
        .map(|q| {
            let mut dists: Vec<(u32, usize)> = (0..database.len())
                .map(|i| (queries.hamming(q, database, i), i))
                .collect();
            dists.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
            dists.into_iter().take(k).map(|(_, i)| i).collect()
        })
        .collect()
}

/// The PR-2 per-query bounded-heap scans, kept verbatim as the pinned
/// baseline: the bitwise-equivalence tests compare the batched blocked kernel
/// against these, and the before/after benches measure both in the same run,
/// so the baseline cannot drift from what the tests verify.
pub mod reference {
    use super::BinaryHeap;
    use parmac_hash::BinaryCodes;

    /// One query at a time, one bounded max-heap, one `hamming` call per
    /// (query, point) pair — `hamming_knn` as shipped by PR 2.
    pub fn per_query_heap_knn(
        database: &BinaryCodes,
        queries: &BinaryCodes,
        k: usize,
    ) -> Vec<Vec<usize>> {
        super::assert_query_shapes(database, queries, k);
        let k = k.min(database.len());
        let mut heap: BinaryHeap<(u32, usize)> = BinaryHeap::with_capacity(k);
        (0..queries.len())
            .map(|q| {
                heap.clear();
                for i in 0..database.len() {
                    let candidate = (queries.hamming(q, database, i), i);
                    if heap.len() < k {
                        heap.push(candidate);
                    } else if candidate < *heap.peek().expect("heap is non-empty when full") {
                        heap.pop();
                        heap.push(candidate);
                    }
                }
                let mut neighbours = vec![0usize; heap.len()];
                for slot in neighbours.iter_mut().rev() {
                    *slot = heap.pop().expect("heap holds one entry per slot").1;
                }
                neighbours
            })
            .collect()
    }

    /// Per-shard top-`k` via the per-query heap scan, as shipped by PR 4.
    pub fn per_query_shard_topk(
        shard: &BinaryCodes,
        global_ids: &[usize],
        queries: &BinaryCodes,
        k: usize,
    ) -> Vec<Vec<(u32, usize)>> {
        super::assert_query_shapes(shard, queries, k);
        assert_eq!(
            global_ids.len(),
            shard.len(),
            "one global id per shard code"
        );
        let k = k.min(shard.len());
        let mut heap: BinaryHeap<(u32, usize)> = BinaryHeap::with_capacity(k);
        (0..queries.len())
            .map(|q| {
                heap.clear();
                for (i, &global) in global_ids.iter().enumerate() {
                    let candidate = (queries.hamming(q, shard, i), global);
                    if heap.len() < k {
                        heap.push(candidate);
                    } else if candidate < *heap.peek().expect("heap is non-empty when full") {
                        heap.pop();
                        heap.push(candidate);
                    }
                }
                let mut hits = vec![(0u32, 0usize); heap.len()];
                for slot in hits.iter_mut().rev() {
                    *slot = heap.pop().expect("heap holds one entry per slot");
                }
                hits
            })
            .collect()
    }
}

/// Returns, for one query code, the database indices ordered by increasing
/// Hamming distance (the full ranking used for recall@R curves).
///
/// # Panics
///
/// Panics if the code widths differ or `query >= queries.len()`.
pub fn hamming_ranking(database: &BinaryCodes, queries: &BinaryCodes, query: usize) -> Vec<usize> {
    assert_eq!(database.n_bits(), queries.n_bits(), "code width mismatch");
    let mut dists: Vec<(u32, usize)> = (0..database.len())
        .map(|i| (queries.hamming(query, database, i), i))
        .collect();
    // The (distance, index) keys are unique, so the unstable sort is
    // deterministic and matches the stable sort exactly.
    dists.sort_unstable();
    dists.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn codes(rows: &[Vec<bool>]) -> BinaryCodes {
        BinaryCodes::from_bools(rows)
    }

    #[test]
    fn nearest_code_is_exact_match() {
        let db = codes(&[
            vec![true, true, false, false],
            vec![false, false, true, true],
            vec![true, false, true, false],
        ]);
        let q = codes(&[vec![false, false, true, true]]);
        let nn = hamming_knn(&db, &q, 2);
        assert_eq!(nn[0][0], 1);
    }

    #[test]
    fn ranking_is_sorted_by_distance() {
        let db = codes(&[
            vec![true, true, true, true],
            vec![true, true, true, false],
            vec![false, false, false, false],
        ]);
        let q = codes(&[vec![true, true, true, true]]);
        let rank = hamming_ranking(&db, &q, 0);
        assert_eq!(rank, vec![0, 1, 2]);
    }

    #[test]
    fn k_clamped_and_ties_by_index() {
        let db = codes(&[vec![true, false], vec![true, false], vec![false, true]]);
        let q = codes(&[vec![true, false]]);
        let nn = hamming_knn(&db, &q, 10);
        assert_eq!(nn[0], vec![0, 1, 2]);
    }

    #[test]
    fn heap_selection_matches_full_sort_on_random_codes() {
        // Many duplicate distances (16-bit codes over 400 points) exercise the
        // tie-breaking; the batched blocked kernel must equal the full sort
        // and the PR-2 per-query heap scan for every k.
        let mut rng = SmallRng::seed_from_u64(0);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(400, 16, 0.0, 1.0, &mut rng));
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(9, 16, 0.0, 1.0, &mut rng));
        for k in [1, 3, 10, 100, 400, 1000] {
            let batched = hamming_knn(&db, &q, k);
            assert_eq!(batched, full_sort_knn(&db, &q, k), "k = {k}");
            assert_eq!(
                batched,
                reference::per_query_heap_knn(&db, &q, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn batched_kernel_handles_multi_word_codes() {
        // 130-bit codes span three words: the word-level early-exit path must
        // still match the references exactly.
        let mut rng = SmallRng::seed_from_u64(11);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(300, 130, 0.0, 1.0, &mut rng));
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(8, 130, 0.0, 1.0, &mut rng));
        for k in [1, 7, 64, 300] {
            let batched = hamming_knn(&db, &q, k);
            assert_eq!(batched, full_sort_knn(&db, &q, k), "k = {k}");
            assert_eq!(
                batched,
                reference::per_query_heap_knn(&db, &q, k),
                "k = {k}"
            );
        }
    }

    #[test]
    fn batched_kernel_crosses_block_boundaries() {
        // More points than one 32 KiB block holds (4096 single-word rows), so
        // the scan spans several blocks; results must be order-independent of
        // the blocking.
        let mut rng = SmallRng::seed_from_u64(12);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(10_000, 24, 0.0, 1.0, &mut rng));
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(3, 24, 0.0, 1.0, &mut rng));
        assert_eq!(
            hamming_knn(&db, &q, 50),
            reference::per_query_heap_knn(&db, &q, 50)
        );
    }

    #[test]
    fn ranking_prefix_matches_knn() {
        let mut rng = SmallRng::seed_from_u64(1);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(120, 12, 0.0, 1.0, &mut rng));
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(4, 12, 0.0, 1.0, &mut rng));
        let nn = hamming_knn(&db, &q, 25);
        for (query, neighbours) in nn.iter().enumerate() {
            let rank = hamming_ranking(&db, &q, query);
            assert_eq!(neighbours, &rank[..25], "query {query}");
        }
    }

    #[test]
    fn sharded_topk_merge_equals_single_process_knn() {
        // Partition a random database into three uneven shards; the merged
        // per-shard top-k must equal hamming_knn over the whole database for
        // every k, including ties (16-bit codes over 300 points collide a lot).
        let mut rng = SmallRng::seed_from_u64(7);
        let db = BinaryCodes::from_matrix(&Mat::random_uniform(300, 16, 0.0, 1.0, &mut rng));
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(7, 16, 0.0, 1.0, &mut rng));
        let shards: Vec<Vec<usize>> =
            vec![(0..50).collect(), (50..60).collect(), (60..300).collect()];
        let shard_codes: Vec<BinaryCodes> = shards
            .iter()
            .map(|ids| {
                let mut rows = Vec::new();
                for &i in ids {
                    rows.push((0..db.n_bits()).map(|b| db.bit(i, b)).collect::<Vec<_>>());
                }
                BinaryCodes::from_bools(&rows)
            })
            .collect();
        for k in [1usize, 5, 60, 300] {
            let reference = hamming_knn(&db, &q, k);
            let per_shard: Vec<Vec<Vec<(u32, usize)>>> = shard_codes
                .iter()
                .zip(&shards)
                .map(|(codes, ids)| shard_hamming_topk_batched(codes, ids, &q, k))
                .collect();
            for query in 0..q.len() {
                let lists: Vec<Vec<(u32, usize)>> =
                    per_shard.iter().map(|s| s[query].clone()).collect();
                assert_eq!(
                    merge_shard_topk(&lists, k),
                    reference[query],
                    "k={k}, query={query}"
                );
            }
        }
    }

    #[test]
    fn chunked_scan_merges_to_the_whole_shard_topk() {
        // Split one shard's rows into uneven chunks (the scan-worker unit of
        // work); merging the per-chunk hits must reproduce the whole-shard
        // scan exactly, distances included.
        let mut rng = SmallRng::seed_from_u64(13);
        let shard = BinaryCodes::from_matrix(&Mat::random_uniform(200, 16, 0.0, 1.0, &mut rng));
        // Shuffled, non-contiguous global ids, as after streaming.
        let ids: Vec<usize> = (0..200).map(|i| (i * 37 + 5) % 1000).collect();
        let q = BinaryCodes::from_matrix(&Mat::random_uniform(6, 16, 0.0, 1.0, &mut rng));
        for k in [1usize, 9, 200, 500] {
            let whole = shard_hamming_topk_batched(&shard, &ids, &q, k);
            let chunks = [0..70, 70..75, 75..200];
            let per_chunk: Vec<Vec<Vec<(u32, usize)>>> = chunks
                .iter()
                .map(|r| shard_hamming_topk_chunk(&shard, r.clone(), &ids, &q, k))
                .collect();
            for query in 0..q.len() {
                let lists: Vec<Vec<(u32, usize)>> =
                    per_chunk.iter().map(|c| c[query].clone()).collect();
                assert_eq!(
                    merge_shard_topk_hits(&lists, k),
                    whole[query],
                    "k={k}, query={query}"
                );
            }
        }
    }

    #[test]
    fn merge_handles_empty_and_short_shards() {
        let lists = vec![vec![], vec![(0u32, 3usize), (2, 5)], vec![(1, 0)]];
        assert_eq!(merge_shard_topk(&lists, 2), vec![3, 0]);
        assert_eq!(merge_shard_topk(&lists, 10), vec![3, 0, 5]);
        assert!(merge_shard_topk(&[], 4).is_empty());
        assert_eq!(
            merge_shard_topk_hits(&lists, 2),
            vec![(0u32, 3usize), (1, 0)]
        );
    }

    #[test]
    fn empty_database_and_empty_query_batch() {
        let db = codes(&[vec![true, false]]);
        let empty_queries = BinaryCodes::zeros(0, 2);
        assert!(hamming_knn(&db, &empty_queries, 3).is_empty());
        let empty_db = BinaryCodes::zeros(0, 2);
        let q = codes(&[vec![true, false]]);
        assert_eq!(hamming_knn(&empty_db, &q, 3), vec![Vec::<usize>::new()]);
    }

    #[test]
    #[should_panic(expected = "one global id per shard code")]
    fn shard_topk_rejects_id_length_mismatch() {
        let db = codes(&[vec![true, false]]);
        let q = codes(&[vec![true, false]]);
        let _ = shard_hamming_topk_batched(&db, &[0, 1], &q, 1);
    }

    #[test]
    #[should_panic(expected = "row range exceeds the shard")]
    fn chunk_scan_rejects_out_of_range_rows() {
        let db = codes(&[vec![true, false]]);
        let q = codes(&[vec![true, false]]);
        let _ = shard_hamming_topk_chunk(&db, 0..2, &[0], &q, 1);
    }

    #[test]
    #[should_panic(expected = "same width")]
    fn rejects_width_mismatch() {
        let db = codes(&[vec![true, false]]);
        let q = codes(&[vec![true, false, true]]);
        let _ = hamming_knn(&db, &q, 1);
    }
}
