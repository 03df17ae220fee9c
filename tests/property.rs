//! Workspace-level property-based tests on the invariants that tie the crates
//! together: the speedup model's theorems, the ring protocol, binary-code
//! round-trips through encoder/decoder shapes, and partitioning.

use parmac::cluster::{CostModel, RingTopology, SimCluster};
use parmac::core::SpeedupModel;
use parmac::data::{partition_equal, partition_proportional};
use parmac::hash::{BinaryCodes, HashFunction, LinearHash};
use parmac::linalg::Mat;
use parmac::optim::{LinearSvm, LogisticRegression, RidgeRegression, SgdConfig, Submodel};
use proptest::prelude::*;

/// The hand-rolled W-step reference the indexed driver replaced: a gathered
/// copy of the visited rows, then a copy of every minibatch and one
/// [`Submodel::sgd_step`] on it. Returns the number of steps taken.
fn gathered_sgd<M: Submodel>(
    model: &mut M,
    gathered: &Mat,
    targets: &[f64],
    config: SgdConfig,
    passes: usize,
) -> u64 {
    let mut updates = 0;
    for _ in 0..passes {
        let mut start = 0;
        while start < gathered.rows() {
            let end = (start + config.minibatch_size).min(gathered.rows());
            let batch: Vec<usize> = (start..end).collect();
            let step = config.schedule.step_size(updates);
            model.sgd_step(&gathered.select_rows(&batch), &targets[start..end], step);
            updates += 1;
            start = end;
        }
    }
    updates
}

fn bits(weights: Vec<f64>) -> Vec<u64> {
    weights.into_iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Theorem A.1(3): on divisor points P of M the speedup never decreases.
    #[test]
    fn speedup_monotone_on_divisors(
        m_exp in 1u32..8,
        n in 1000usize..100_000,
        t_wc in 1.0f64..1000.0,
        t_zr in 0.5f64..100.0,
        epochs in 1usize..4,
    ) {
        let m = 1usize << m_exp;
        let model = SpeedupModel::new(n, m, epochs, 1.0, t_wc, t_zr);
        let mut prev = 0.0;
        for p in (0..=m_exp).map(|k| 1usize << k) {
            let s = model.speedup(p);
            prop_assert!(s >= prev - 1e-9, "S({p}) = {s} < {prev}");
            prop_assert!(s <= p as f64 + 1e-9, "S({p}) = {s} exceeds perfect speedup");
            prev = s;
        }
    }

    /// The ring W step visits every (submodel, machine) pair exactly `epochs`
    /// times, for any machine count, submodel count and epoch count.
    #[test]
    fn ring_protocol_visit_counts(
        p in 1usize..7,
        m in 1usize..12,
        epochs in 1usize..4,
    ) {
        let shards = partition_equal(p * 5, p).into_shards();
        let cluster = SimCluster::new(shards, CostModel::distributed());
        let mut visits = vec![vec![0usize; p]; m];
        let mut submodels: Vec<usize> = (0..m).collect();
        cluster.run_w_step(&mut submodels, epochs, 1, |sub, machine, _| {
            visits[*sub][machine] += 1;
        }, None);
        for sub_visits in &visits {
            for &count in sub_visits {
                prop_assert_eq!(count, epochs);
            }
        }
    }

    /// Binary codes survive a matrix round trip and Hamming distance is a
    /// metric (identity, symmetry, triangle inequality).
    #[test]
    fn binary_code_round_trip_and_metric(
        rows in prop::collection::vec(prop::collection::vec(any::<bool>(), 9), 3..6),
    ) {
        let codes = BinaryCodes::from_bools(&rows);
        let round = BinaryCodes::from_matrix(&codes.to_matrix());
        prop_assert_eq!(&codes, &round);
        for i in 0..codes.len() {
            prop_assert_eq!(codes.hamming_within(i, i), 0);
            for j in 0..codes.len() {
                prop_assert_eq!(codes.hamming_within(i, j), codes.hamming_within(j, i));
                for k in 0..codes.len() {
                    prop_assert!(
                        codes.hamming_within(i, k)
                            <= codes.hamming_within(i, j) + codes.hamming_within(j, k)
                    );
                }
            }
        }
    }

    /// Partitions cover every point exactly once, whatever the speeds.
    #[test]
    fn partitions_are_disjoint_covers(
        n in 1usize..500,
        speeds in prop::collection::vec(0.1f64..10.0, 1..8),
    ) {
        for partition in [partition_equal(n, speeds.len()), partition_proportional(n, &speeds)] {
            let mut all: Vec<usize> = partition.iter().flatten().copied().collect();
            all.sort_unstable();
            prop_assert_eq!(all.len(), n);
            all.dedup();
            prop_assert_eq!(all.len(), n);
        }
    }

    /// Following successors around any shuffled ring returns to the start
    /// after exactly P hops, visiting every machine once.
    #[test]
    fn shuffled_rings_are_hamiltonian_cycles(p in 1usize..20, seed in 0u64..1000) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let ring = RingTopology::shuffled(p, &mut rng);
        let start = ring.machines()[0];
        let mut cur = start;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..p {
            prop_assert!(seen.insert(cur));
            cur = ring.successor(cur).expect("ring member has a successor");
        }
        prop_assert_eq!(cur, start);
    }

    /// Hash encoding is deterministic and produces one code per row with the
    /// configured number of bits.
    #[test]
    fn hash_encoding_shapes(
        n in 1usize..30,
        d in 1usize..10,
        bits in 1usize..20,
        seed in 0u64..1000,
    ) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let hash = LinearHash::random(bits, d, &mut rng);
        let x = Mat::random_normal(n, d, &mut rng);
        let a = hash.encode(&x);
        let b = hash.encode(&x);
        prop_assert_eq!(a.len(), n);
        prop_assert_eq!(a.n_bits(), bits);
        prop_assert_eq!(a.to_matrix(), b.to_matrix());
    }

    /// The indexed minibatch-SGD driver — rows read in place through a
    /// shuffled (or empty) order, from a `Mat` or from bit-packed codes —
    /// equals the gather-then-step reference bit for bit, `updates` counter
    /// included, for every minibatch shape: size 1, a ragged last batch, and
    /// one batch larger than the visit.
    #[test]
    fn indexed_sgd_driver_equals_the_gathered_reference(
        visited in 0usize..40,
        unvisited in 0usize..8,
        d in 1usize..9,
        minibatch in 1usize..48,
        three_passes in any::<bool>(),
        seed in 0u64..10_000,
    ) {
        use rand::{rngs::SmallRng, seq::SliceRandom, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let passes = if three_passes { 3 } else { 1 };
        let config = SgdConfig::new().with_eta0(0.05).with_minibatch_size(minibatch);
        let x = Mat::random_normal(visited + unvisited, d, &mut rng);
        let codes = LinearHash::random(d, d, &mut rng).encode(&x);
        let mut order: Vec<usize> = (0..visited + unvisited).collect();
        order.shuffle(&mut rng);
        order.truncate(visited);
        let real: Vec<f64> = (0..visited).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let signs: Vec<f64> = real.iter().map(|t| if *t >= 0.0 { 1.0 } else { -1.0 }).collect();
        let unit: Vec<f64> = real.iter().map(|t| (t + 2.0) / 4.0).collect();

        macro_rules! check {
            ($model:expr, $source:expr, $as_matrix:expr, $targets:expr) => {{
                let (mut indexed, mut reference) = ($model, $model);
                let start: Vec<f64> = (0..=d).map(|_| rng.gen_range(-0.5..0.5)).collect();
                indexed.set_weights(&start);
                reference.set_weights(&start);
                indexed.fit_indexed($source, order.iter().copied(), $targets, passes);
                let gathered = $as_matrix.select_rows(&order);
                let steps = gathered_sgd(&mut reference, &gathered, $targets, config, passes);
                prop_assert_eq!(bits(indexed.weights()), bits(reference.weights()));
                prop_assert_eq!(indexed.updates(), steps);
                prop_assert_eq!(steps as usize, passes * visited.div_ceil(minibatch));
            }};
        }
        check!(LinearSvm::new(d, config), &x, x, &signs);
        check!(RidgeRegression::new(d, config), &x, x, &real);
        check!(LogisticRegression::new(d, config), &x, x, &unit);
        check!(RidgeRegression::new(d, config), &codes, codes.to_matrix(), &real);
    }
}
