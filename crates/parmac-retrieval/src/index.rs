//! Multi-probe code-prefix index: sublinear Hamming top-`k` over one shard.
//!
//! The blocked full scan ([`crate::shard_hamming_topk_batched`]) is exact but
//! linear in the shard size. This index makes the common case sublinear while
//! keeping the *same* answer contract, by bucketing codes on their low-`b`-bit
//! prefix and probing buckets in increasing Hamming radius of the query's own
//! prefix:
//!
//! * **Bucketing.** Code `p` lands in bucket `prefix_b(p)` (its low `b` bits,
//!   [`BinaryCodes::prefix_bits`]). Buckets are stored back-to-back in one
//!   bucket-sorted [`BinaryCodes`], so probing a bucket is a contiguous range
//!   scan through the very kernel the full scan uses
//!   ([`search::RangeScanner`](crate::search) — the one choke point both the
//!   exact and the budgeted mode share with the pinned PR-2/PR-5 scans).
//! * **Probe order.** For radius `r = 0, 1, 2, …` the query visits every
//!   bucket whose prefix differs from its own in exactly `r` bits (masks
//!   enumerated in a fixed deterministic order), scanning each through the
//!   shared bounded-heap selection.
//! * **Exact termination.** Dropping bits cannot increase a Hamming
//!   distance, so `dist(q, p) ≥ dist(prefix_b(q), prefix_b(p))`: every code
//!   in a not-yet-probed bucket at radius `≥ r` has full distance `≥ r`.
//!   Once the running k-th distance `bound` satisfies `bound < r`, no
//!   unprobed code can enter the top-`k` — not even by the `(distance,
//!   index)` tie-break, which only lets *equal* distances displace — and the
//!   scan stops with the provably exact answer, bitwise identical to the
//!   full scan.
//! * **Spill.** The cut needs `bound < r`, and on codes that do not cluster
//!   it never comes: among 100 000 uniform 64-bit codes the 10th neighbour
//!   sits at distance ≈ 17, past a 14-bit prefix, and walking all 16 384
//!   buckets six codes at a time costs 5.4× the blocked full scan. So before
//!   each radius `r ≥ 2` (the query's own bucket and its `b` one-bit
//!   neighbours are always probed: until they are in, the heap holds what
//!   happened to share a prefix, not the neighbourhood) and once its heap is
//!   full (`bound` says nothing before), a query projects what is left:
//!   `Σ C(b, r')` buckets for `r' = r ..= min(bound, b)` — an upper bound, as
//!   `bound` only shrinks — of which the occupied share costs
//!   `PROBE_OVERHEAD_CODES` swept codes each on top of the rows they hold.
//!   When that exceeds *twice* a sweep of every row plus
//!   `SWEEP_SETUP_CODES` (twice: staying wrongly costs at most that, while
//!   spilling wrongly can cost twenty cheap probes), the query *spills*: its
//!   heap is dropped and all spilled queries of the call are answered from
//!   scratch by one walk of the blocked kernel (`search::batched_topk`) over
//!   the delta region and the whole main storage — dead rows included, which
//!   carry a tombstone id the scan drops after their one popcount. `(distance,
//!   id)` keys are unique, so the top-`k` is the same whichever path found it.
//!   Both constants are ratios of `perf` ledger rows (ROADMAP, PR 15).
//! * **Probe budget.** Passing `Some(budget)` instead stops after that many
//!   non-empty buckets, trading recall for throughput. The probe order is
//!   fixed and independent of `k`, so a larger budget probes a superset of
//!   buckets and recall is monotone non-decreasing in the budget (any
//!   candidate that displaces a true top-`k` member is itself a true top-`k`
//!   member).
//!
//! **Incremental refresh.** ParMAC's Z steps rewrite codes in place while the
//! index serves queries. An update whose prefix is unchanged overwrites its
//! row; one that moves buckets is swap-removed from its bucket (the bucket's
//! last live row fills the hole) and appended to a small unsorted *delta
//! region* that every query scans in full — exactness is never lost, only a
//! little speed — until the delta grows past a rebuild threshold and the
//! index recompacts.

use crate::search::{batched_topk, drain_heap, RangeScanner, DEAD_ID};
use parmac_hash::BinaryCodes;
use std::collections::BinaryHeap;
use std::collections::HashMap;
use std::ops::Range;

/// Upper limit on the prefix width `b`: 2^16 buckets keep the bucket table
/// around a megabyte per shard while leaving room for million-code shards at
/// the default ~8 codes per bucket.
pub const MAX_PREFIX_BITS: usize = 16;

/// Target mean bucket occupancy of [`PrefixIndex::auto_prefix_bits`].
const TARGET_BUCKET_CODES: usize = 8;

/// The delta region triggers a recompaction when it outgrows
/// `max(REBUILD_MIN_DELTA, live_main / 4)`.
const REBUILD_MIN_DELTA: usize = 64;

/// Fixed cost of probing one occupied bucket (mask step, two table lookups,
/// a scan call on cold rows), in swept codes: `serve_static` walked every
/// bucket at 4.91 ns a code, 6.1 codes a bucket = 30 ns, of which the codes
/// themselves are 6.1 × 0.91 ns (`retrieval.fullscan_ns_per_code`).
const PROBE_OVERHEAD_CODES: usize = 26;

/// Fixed cost of one query's sweep (its heap, and the k·ln(N/k) insertions
/// before its bound settles), in swept codes: the full scan is 1.22–1.46 ns a
/// code on 1 200–2 200-code shards against 0.87 ns at 100 000, ≈ 700 ns.
const SWEEP_SETUP_CODES: usize = 800;

/// `BINOMIAL[b][r]` = C(b, r), the buckets at prefix radius `r`.
static BINOMIAL: [[usize; MAX_PREFIX_BITS + 1]; MAX_PREFIX_BITS + 1] = {
    let mut c = [[0; MAX_PREFIX_BITS + 1]; MAX_PREFIX_BITS + 1];
    let mut b = 0;
    while b <= MAX_PREFIX_BITS {
        c[b][0] = 1;
        let mut r = 1;
        while r <= b {
            c[b][r] = c[b - 1][r - 1] + c[b - 1][r];
            r += 1;
        }
        b += 1;
    }
    c
};

/// What one search call did, for the tests and benches that must see both
/// exact-mode paths taken.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Queries answered by probing alone.
    pub probed: usize,
    /// Queries that spilled into the blocked sweep.
    pub swept: usize,
    /// Non-empty buckets scanned.
    pub buckets: usize,
    /// Codes scanned (delta rows, bucket rows, swept rows).
    pub codes: usize,
}

/// Where a point's code currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// Row of the bucket-sorted main storage.
    Main(usize),
    /// Row of the always-scanned delta region.
    Delta(usize),
}

/// A multi-probe prefix index over one shard's binary codes (module docs for
/// the probe order, the exactness argument and the refresh scheme).
#[derive(Debug, Clone)]
pub struct PrefixIndex {
    prefix_bits: usize,
    n_bits: usize,
    /// Bucket-sorted storage; rows of a bucket past its live length are dead
    /// (left behind by swap-removal): never probed, and [`DEAD_ID`] in `ids`
    /// so the sweep can cross them.
    codes: BinaryCodes,
    ids: Vec<usize>,
    bucket_start: Vec<usize>,
    bucket_len: Vec<usize>,
    /// Live rows in `codes` (dead rows excluded).
    main_live: usize,
    /// Buckets with at least one live row.
    occupied: usize,
    delta: BinaryCodes,
    delta_ids: Vec<usize>,
    slot_of: HashMap<usize, Slot>,
    rebuilds: usize,
}

impl PrefixIndex {
    /// Builds an index with an automatically chosen prefix width
    /// ([`auto_prefix_bits`](Self::auto_prefix_bits)). Row `i` of `codes` is
    /// the code of global point `ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not hold one *distinct* id per code.
    pub fn build(codes: &BinaryCodes, ids: &[usize]) -> Self {
        Self::with_prefix_bits(
            codes,
            ids,
            Self::auto_prefix_bits(codes.len(), codes.n_bits()),
        )
    }

    /// The prefix width used by [`build`](Self::build): the smallest `b` with
    /// a mean occupancy of at most [`TARGET_BUCKET_CODES`] codes per bucket,
    /// clamped to `[1, min(MAX_PREFIX_BITS, n_bits)]`.
    pub fn auto_prefix_bits(n_codes: usize, n_bits: usize) -> usize {
        let mut b = 1;
        while b < MAX_PREFIX_BITS && (TARGET_BUCKET_CODES << b) < n_codes {
            b += 1;
        }
        b.min(n_bits).max(1)
    }

    /// Builds an index with an explicit prefix width (clamped to
    /// `[1, min(MAX_PREFIX_BITS, n_bits)]` — asking for a prefix wider than
    /// the code just buckets on the whole code).
    ///
    /// # Panics
    ///
    /// Panics if `ids` does not hold one *distinct* id per code, or holds
    /// `usize::MAX` (reserved to mark dead rows).
    pub fn with_prefix_bits(codes: &BinaryCodes, ids: &[usize], bits: usize) -> Self {
        assert_eq!(ids.len(), codes.len(), "one global id per shard code");
        let b = bits.clamp(1, MAX_PREFIX_BITS).min(codes.n_bits()).max(1);
        let n = codes.len();
        let n_buckets = 1usize << b;
        let mut bucket_len = vec![0usize; n_buckets];
        for i in 0..n {
            bucket_len[codes.prefix_bits(i, b) as usize] += 1;
        }
        let mut bucket_start = vec![0usize; n_buckets];
        let mut acc = 0;
        for (start, len) in bucket_start.iter_mut().zip(&bucket_len) {
            *start = acc;
            acc += len;
        }
        let mut main = BinaryCodes::zeros(n, codes.n_bits());
        let mut main_ids = vec![0usize; n];
        let mut cursor = bucket_start.clone();
        let mut slot_of = HashMap::with_capacity(n);
        for (i, &id) in ids.iter().enumerate() {
            let v = codes.prefix_bits(i, b) as usize;
            let row = cursor[v];
            cursor[v] += 1;
            main.copy_code_from(row, codes, i);
            main_ids[row] = id;
            assert_ne!(id, DEAD_ID, "global id usize::MAX is reserved");
            let previous = slot_of.insert(id, Slot::Main(row));
            assert!(previous.is_none(), "duplicate global id {id}");
        }
        PrefixIndex {
            prefix_bits: b,
            n_bits: codes.n_bits(),
            codes: main,
            ids: main_ids,
            occupied: bucket_len.iter().filter(|&&len| len > 0).count(),
            bucket_start,
            bucket_len,
            main_live: n,
            delta: BinaryCodes::zeros(0, codes.n_bits()),
            delta_ids: Vec::new(),
            slot_of,
            rebuilds: 0,
        }
    }

    /// Number of indexed codes.
    pub fn len(&self) -> usize {
        self.main_live + self.delta.len()
    }

    /// Returns `true` if no codes are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bits per indexed code.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// The effective prefix width `b`.
    pub fn prefix_bits(&self) -> usize {
        self.prefix_bits
    }

    /// Number of buckets (`2^b`).
    pub fn n_buckets(&self) -> usize {
        self.bucket_len.len()
    }

    /// Number of non-empty buckets: a probe budget of at least this many
    /// buckets is equivalent to exact mode.
    pub fn occupied_buckets(&self) -> usize {
        self.occupied
    }

    /// Codes currently in the always-scanned delta region.
    pub fn delta_len(&self) -> usize {
        self.delta.len()
    }

    /// How many times the index has recompacted its delta region.
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Inserts or overwrites the code of global point `id` from a 0/1 slice
    /// (the Z-step update representation).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n_bits()`.
    pub fn upsert(&mut self, id: usize, bits: &[f64]) {
        let mut one = BinaryCodes::zeros(1, self.n_bits);
        one.set_code(0, bits);
        self.upsert_code(id, &one, 0);
    }

    /// Inserts or overwrites the code of global point `id` with row `row` of
    /// `src`. Same-prefix updates rewrite in place; bucket-moving updates and
    /// new points go through the delta region (module docs).
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ, `row` is out of range or `id` is the
    /// reserved `usize::MAX`.
    pub fn upsert_code(&mut self, id: usize, src: &BinaryCodes, row: usize) {
        assert_eq!(src.n_bits(), self.n_bits, "bit-width mismatch");
        assert_ne!(id, DEAD_ID, "global id usize::MAX is reserved");
        let new_prefix = src.prefix_bits(row, self.prefix_bits) as usize;
        match self.slot_of.get(&id).copied() {
            Some(Slot::Main(r)) => {
                let old_prefix = self.codes.prefix_bits(r, self.prefix_bits) as usize;
                if old_prefix == new_prefix {
                    self.codes.copy_code_from(r, src, row);
                    return;
                }
                // Swap-remove from the old bucket: the bucket's last live row
                // fills the hole, the freed row goes dead.
                let last = self.bucket_start[old_prefix] + self.bucket_len[old_prefix] - 1;
                if last != r {
                    self.codes.copy_code_within(last, r);
                    let moved = self.ids[last];
                    self.ids[r] = moved;
                    self.slot_of.insert(moved, Slot::Main(r));
                }
                self.ids[last] = DEAD_ID;
                self.bucket_len[old_prefix] -= 1;
                self.occupied -= usize::from(self.bucket_len[old_prefix] == 0);
                self.main_live -= 1;
                self.push_delta(id, src, row);
            }
            Some(Slot::Delta(d)) => {
                self.delta.copy_code_from(d, src, row);
            }
            None => {
                self.push_delta(id, src, row);
            }
        }
    }

    fn push_delta(&mut self, id: usize, src: &BinaryCodes, row: usize) {
        let d = self.delta.len();
        self.delta.push_code_from(src, row);
        self.delta_ids.push(id);
        self.slot_of.insert(id, Slot::Delta(d));
        if self.delta.len() > REBUILD_MIN_DELTA.max(self.main_live / 4) {
            self.rebuild();
        }
    }

    /// Recompacts every live code (main buckets then delta, in storage
    /// order) into a fresh bucket-sorted index with the same prefix width.
    fn rebuild(&mut self) {
        let total = self.len();
        let mut gathered = BinaryCodes::zeros(total, self.n_bits);
        let mut gathered_ids = Vec::with_capacity(total);
        let mut cursor = 0;
        for (&start, &len) in self.bucket_start.iter().zip(&self.bucket_len) {
            for r in start..start + len {
                gathered.copy_code_from(cursor, &self.codes, r);
                gathered_ids.push(self.ids[r]);
                cursor += 1;
            }
        }
        for d in 0..self.delta.len() {
            gathered.copy_code_from(cursor, &self.delta, d);
            gathered_ids.push(self.delta_ids[d]);
            cursor += 1;
        }
        let rebuilds = self.rebuilds + 1;
        *self = PrefixIndex::with_prefix_bits(&gathered, &gathered_ids, self.prefix_bits);
        self.rebuilds = rebuilds;
    }

    /// Batched top-`k` over the whole query batch: for each query, the `k`
    /// indexed codes with the smallest Hamming distance as `(distance,
    /// global id)` pairs sorted ascending. `probe_budget = None` is exact
    /// mode — bitwise identical to
    /// [`shard_hamming_topk_batched`](crate::shard_hamming_topk_batched) over
    /// the same codes; `Some(budget)` stops each query after `budget`
    /// non-empty buckets (module docs for both contracts).
    ///
    /// # Panics
    ///
    /// Panics if the code widths differ or `k == 0`.
    pub fn topk_batched(
        &self,
        queries: &BinaryCodes,
        k: usize,
        probe_budget: Option<usize>,
    ) -> Vec<Vec<(u32, usize)>> {
        self.topk_batched_range(queries, 0..queries.len(), k, probe_budget)
    }

    /// [`topk_batched`](Self::topk_batched) over a contiguous sub-range of
    /// the query batch. Concatenating the per-range outputs over a partition
    /// of `0..queries.len()` equals the whole-batch call.
    ///
    /// # Panics
    ///
    /// Panics if the code widths differ, `k == 0`, or `q_rows` exceeds the
    /// batch.
    pub fn topk_batched_range(
        &self,
        queries: &BinaryCodes,
        q_rows: Range<usize>,
        k: usize,
        probe_budget: Option<usize>,
    ) -> Vec<Vec<(u32, usize)>> {
        self.topk_counted(queries, q_rows, k, probe_budget).0
    }

    /// [`topk_batched_range`](Self::topk_batched_range) — the one
    /// implementation — with the call's [`SearchCounts`].
    #[doc(hidden)]
    pub fn topk_counted(
        &self,
        queries: &BinaryCodes,
        q_rows: Range<usize>,
        k: usize,
        probe_budget: Option<usize>,
    ) -> (Vec<Vec<(u32, usize)>>, SearchCounts) {
        assert_eq!(
            self.n_bits,
            queries.n_bits(),
            "database and query codes must have the same width"
        );
        assert!(k > 0, "k must be positive");
        assert!(q_rows.end <= queries.len(), "query range exceeds the batch");
        let k = k.min(self.len());
        let b = self.prefix_bits;
        let wpc = self.codes.words_per_code();
        let query_words = queries.as_words();
        let budget = probe_budget.unwrap_or(usize::MAX);
        let mut counts = SearchCounts::default();
        let mut scanner = RangeScanner::new();
        let mut heap: BinaryHeap<(u32, usize)> = BinaryHeap::with_capacity(k.max(1));
        let mut results = Vec::with_capacity(q_rows.len());
        // Rows of the queries whose probing went hopeless.
        let mut spilled: Vec<usize> = Vec::new();
        for q in q_rows.clone() {
            if k == 0 {
                results.push(Vec::new());
                continue;
            }
            heap.clear();
            let qw = &query_words[q * wpc..(q + 1) * wpc];
            // The delta region is scanned first and in full: it both keeps
            // the answer exact under pending updates and seeds the bound.
            let mut bound = scanner.scan_range(
                self.delta.as_words(),
                wpc,
                0..self.delta.len(),
                Some(&self.delta_ids),
                qw,
                k,
                &mut heap,
                u32::MAX,
            );
            counts.codes += self.delta.len();
            let query_prefix = queries.prefix_bits(q, b);
            let mut probed = 0usize;
            'probing: for radius in 0..=b {
                if probe_budget.is_none() && self.probing_is_hopeless(radius, bound) {
                    spilled.push(q);
                    heap.clear();
                    break;
                }
                for mask in GosperMasks::new(b, radius) {
                    // Provably exact: all unprobed buckets are at prefix
                    // radius ≥ radius, so their codes are at distance
                    // ≥ radius > bound and cannot enter the top-k.
                    if bound < radius as u32 {
                        break 'probing;
                    }
                    let v = (query_prefix ^ mask) as usize;
                    if self.bucket_len[v] == 0 {
                        continue;
                    }
                    if probed == budget {
                        break 'probing;
                    }
                    let start = self.bucket_start[v];
                    bound = scanner.scan_range(
                        self.codes.as_words(),
                        wpc,
                        start..start + self.bucket_len[v],
                        Some(&self.ids),
                        qw,
                        k,
                        &mut heap,
                        bound,
                    );
                    probed += 1;
                    counts.codes += self.bucket_len[v];
                }
            }
            counts.buckets += probed;
            results.push(drain_heap(&mut heap));
        }
        counts.swept = spilled.len();
        counts.probed = results.len() - counts.swept;
        if !spilled.is_empty() {
            // One blocked walk answers every spilled query from scratch, so
            // no code is offered to a heap twice.
            let mut batch = BinaryCodes::zeros(0, self.n_bits);
            for &q in &spilled {
                batch.push_code_from(queries, q);
            }
            let stores = [
                (&self.delta, 0..self.delta.len(), Some(&self.delta_ids[..])),
                (&self.codes, 0..self.codes.len(), Some(&self.ids[..])),
            ];
            let swept = batched_topk(&mut scanner, &stores, &batch, k);
            for (&q, hits) in spilled.iter().zip(swept) {
                results[q - q_rows.start] = hits;
            }
            counts.codes += spilled.len() * (self.delta.len() + self.codes.len());
        }
        (results, counts)
    }

    /// The spill rule (module docs): would probing the buckets from `radius`
    /// out to the current `bound` cost more than twice a sweep of every row?
    fn probing_is_hopeless(&self, radius: usize, bound: u32) -> bool {
        let (b, rows) = (self.prefix_bits, self.codes.len());
        let last = b.min(bound as usize);
        if radius < 2 || bound == u32::MAX || last < radius {
            return false;
        }
        let buckets: usize = BINOMIAL[b][radius..=last].iter().sum();
        buckets * (self.occupied * PROBE_OVERHEAD_CODES + rows) / self.n_buckets()
            > 2 * (rows + SWEEP_SETUP_CODES)
    }
}

/// Enumerates the `b`-bit masks with exactly `ones` set bits in ascending
/// numeric order (Gosper's hack). The order is deterministic, so the probe
/// sequence — and with it each budget's probed-bucket set — is a fixed
/// function of the query prefix alone.
struct GosperMasks {
    next: Option<u64>,
    last: u64,
}

impl GosperMasks {
    fn new(bits: usize, ones: usize) -> Self {
        debug_assert!(ones <= bits && bits < 64);
        let first = (1u64 << ones) - 1;
        GosperMasks {
            next: Some(first),
            last: first << (bits - ones),
        }
    }
}

impl Iterator for GosperMasks {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let mask = self.next?;
        self.next = if mask == self.last {
            None
        } else {
            let lowest = mask & mask.wrapping_neg();
            let ripple = mask + lowest;
            Some((((ripple ^ mask) >> 2) / lowest) | ripple)
        };
        Some(mask)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::reference;
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_codes(n: usize, bits: usize, seed: u64) -> BinaryCodes {
        let mut rng = SmallRng::seed_from_u64(seed);
        BinaryCodes::from_matrix(&Mat::random_uniform(n, bits, 0.0, 1.0, &mut rng))
    }

    /// Clustered codes: `centers` random codes, each point a center with a
    /// small per-bit flip probability — the near-duplicate regime learned
    /// hashes produce, where prefix probing pays off.
    fn clustered_codes(n: usize, bits: usize, centers: usize, flip: f64, seed: u64) -> BinaryCodes {
        let mut rng = SmallRng::seed_from_u64(seed);
        let center_rows: Vec<Vec<bool>> = (0..centers)
            .map(|_| (0..bits).map(|_| rng.gen_bool(0.5)).collect())
            .collect();
        let rows: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                center_rows[i % centers]
                    .iter()
                    .map(|&bit| bit ^ rng.gen_bool(flip))
                    .collect()
            })
            .collect();
        BinaryCodes::from_bools(&rows)
    }

    fn recall(exact: &[(u32, usize)], got: &[(u32, usize)]) -> f64 {
        if exact.is_empty() {
            return 1.0;
        }
        let truth: std::collections::HashSet<usize> = exact.iter().map(|&(_, i)| i).collect();
        got.iter().filter(|&&(_, i)| truth.contains(&i)).count() as f64 / exact.len() as f64
    }

    #[test]
    fn gosper_masks_enumerate_fixed_popcount_ascending() {
        let masks: Vec<u64> = GosperMasks::new(4, 2).collect();
        assert_eq!(masks, vec![0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]);
        assert_eq!(GosperMasks::new(5, 0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(GosperMasks::new(3, 3).collect::<Vec<_>>(), vec![0b111]);
        // All radii together cover every mask exactly once.
        let mut all: Vec<u64> = (0..=6).flat_map(|r| GosperMasks::new(6, r)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn exact_mode_matches_the_reference_scan() {
        for (n, bits, seed) in [(300, 16, 1u64), (500, 64, 2), (220, 130, 3)] {
            let shard = random_codes(n, bits, seed);
            let ids: Vec<usize> = (0..n).map(|i| i * 3 + 7).collect();
            let queries = random_codes(9, bits, seed + 100);
            let index = PrefixIndex::build(&shard, &ids);
            for k in [1usize, 4, 33, n, 2 * n] {
                assert_eq!(
                    index.topk_batched(&queries, k, None),
                    reference::per_query_shard_topk(&shard, &ids, &queries, k),
                    "n={n}, bits={bits}, k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_mode_matches_the_reference_on_clustered_codes() {
        // The sublinear sweet spot: tight clusters terminate at a small
        // probe radius, and the answer must still be bitwise exact.
        let shard = clustered_codes(2000, 64, 200, 0.02, 5);
        let ids: Vec<usize> = (0..2000).collect();
        let queries = clustered_codes(12, 64, 200, 0.02, 6);
        let index = PrefixIndex::build(&shard, &ids);
        for k in [1usize, 10, 50] {
            assert_eq!(
                index.topk_batched(&queries, k, None),
                reference::per_query_shard_topk(&shard, &ids, &queries, k),
                "k={k}"
            );
        }
    }

    #[test]
    fn wide_prefix_request_clamps_to_the_code_width() {
        let shard = random_codes(60, 5, 8);
        let ids: Vec<usize> = (0..60).collect();
        let index = PrefixIndex::with_prefix_bits(&shard, &ids, 40);
        assert_eq!(index.prefix_bits(), 5);
        let queries = random_codes(4, 5, 9);
        assert_eq!(
            index.topk_batched(&queries, 7, None),
            reference::per_query_shard_topk(&shard, &ids, &queries, 7)
        );
    }

    #[test]
    fn budgeted_recall_is_monotone_and_saturates_to_exact() {
        let shard = clustered_codes(1500, 32, 60, 0.03, 11);
        let ids: Vec<usize> = (0..1500).collect();
        let queries = clustered_codes(10, 32, 60, 0.03, 12);
        let index = PrefixIndex::build(&shard, &ids);
        let k = 10;
        let exact = index.topk_batched(&queries, k, None);
        let budgets = [0usize, 1, 2, 8, 32, index.occupied_buckets()];
        let mut mean_recalls = Vec::new();
        for &budget in &budgets {
            let got = index.topk_batched(&queries, k, Some(budget));
            let mean: f64 = exact
                .iter()
                .zip(&got)
                .map(|(e, g)| recall(e, g))
                .sum::<f64>()
                / queries.len() as f64;
            mean_recalls.push(mean);
        }
        for pair in mean_recalls.windows(2) {
            assert!(
                pair[1] >= pair[0] - 1e-12,
                "recall not monotone: {mean_recalls:?}"
            );
        }
        // A budget covering every occupied bucket IS the exact scan.
        assert_eq!(
            index.topk_batched(&queries, k, Some(index.occupied_buckets())),
            exact
        );
    }

    #[test]
    fn upserts_track_a_fresh_build_through_moves_and_inserts() {
        let initial = random_codes(400, 24, 21);
        let ids: Vec<usize> = (0..400).collect();
        let mut index = PrefixIndex::with_prefix_bits(&initial, &ids, 6);
        let mut current = initial.clone();
        let mut current_ids = ids.clone();
        let mut rng = SmallRng::seed_from_u64(22);
        let queries = random_codes(6, 24, 23);
        for step in 0..3 {
            // Overwrite half the existing points (many of them change
            // prefix and must migrate buckets) and stream in new ones.
            for _ in 0..200 {
                let target = rng.gen_range(0usize..current.len());
                let bits: Vec<f64> = (0..24)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
                    .collect();
                current.set_code(target, &bits);
                index.upsert(current_ids[target], &bits);
            }
            for _ in 0..30 {
                let bits: Vec<f64> = (0..24)
                    .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
                    .collect();
                let id = 1000 + step * 100 + current_ids.len();
                current.push_code(&bits);
                current_ids.push(id);
                index.upsert(id, &bits);
            }
            assert_eq!(
                index.topk_batched(&queries, 15, None),
                reference::per_query_shard_topk(&current, &current_ids, &queries, 15),
                "step {step}"
            );
        }
        // The volume of prefix-moving updates must have recompacted at
        // least once, and left the delta region bounded.
        assert!(
            index.rebuilds() >= 1,
            "expected a rebuild, delta={}",
            index.delta_len()
        );
        assert_eq!(index.len(), current.len());
    }

    #[test]
    fn empty_index_returns_empty_hit_lists() {
        let index = PrefixIndex::build(&BinaryCodes::zeros(0, 16), &[]);
        assert!(index.is_empty());
        let queries = random_codes(3, 16, 31);
        assert_eq!(
            index.topk_batched(&queries, 5, None),
            vec![Vec::<(u32, usize)>::new(); 3]
        );
    }

    #[test]
    fn zero_budget_still_answers_from_the_delta_region() {
        let shard = random_codes(50, 16, 41);
        let ids: Vec<usize> = (0..50).collect();
        let mut index = PrefixIndex::with_prefix_bits(&shard, &ids, 8);
        index.upsert(999, &[1.0; 16]);
        let queries = BinaryCodes::from_bools(&[vec![true; 16]]);
        let got = index.topk_batched(&queries, 1, Some(0));
        assert_eq!(got[0], vec![(0, 999)]);
    }

    #[test]
    #[should_panic(expected = "duplicate global id")]
    fn build_rejects_duplicate_ids() {
        let shard = random_codes(3, 8, 51);
        let _ = PrefixIndex::build(&shard, &[5, 6, 5]);
    }

    #[test]
    #[should_panic(expected = "usize::MAX is reserved")]
    fn build_rejects_the_tombstone_id() {
        let shard = random_codes(3, 8, 53);
        let _ = PrefixIndex::build(&shard, &[5, usize::MAX, 6]);
    }

    #[test]
    #[should_panic(expected = "usize::MAX is reserved")]
    fn upsert_code_rejects_the_tombstone_id() {
        let shard = random_codes(3, 8, 54);
        let mut index = PrefixIndex::build(&shard, &[0, 1, 2]);
        index.upsert_code(usize::MAX, &shard, 0);
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn topk_rejects_zero_k() {
        let shard = random_codes(3, 8, 52);
        let index = PrefixIndex::build(&shard, &[0, 1, 2]);
        let _ = index.topk_batched(&shard, 0, None);
    }
}
