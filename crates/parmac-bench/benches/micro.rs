//! Criterion micro-benchmarks for the hot paths of the ParMAC reproduction:
//! Hamming k-NN search, the per-point Z-step proximal operator, one SGD epoch
//! of a hash SVM, one W-step machine visit, one simulated W-step tick and the
//! closed-form speedup model.
//!
//! The Z-step and k-NN benches are *before/after shaped*: each optimised
//! kernel is benchmarked next to the PR-1 reference it replaced (naive
//! ascending enumeration with a full decode per candidate, the allocating
//! alternating sweep, per-point relaxed solves, full-sort k-NN), so the
//! speedup of the allocation-free kernels is measured on the same host in the
//! same run. The reference kernels live in `parmac_core::zstep::reference`
//! and `parmac_retrieval::search::full_sort_knn` — the *same* implementations
//! the bitwise-equivalence tests pin — so the baselines cannot drift from
//! what the tests verify. Results are tracked in `BENCH_zstep.json`.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use parmac_cluster::{
    ClusterBackend, CostModel, PoolBackend, SimBackend, SimCluster, ThreadedBackend, ZUpdate,
};
use parmac_core::zstep::{reference, solve_relaxed_batch, ZStepProblem, ZStepWorkspace};
use parmac_core::SpeedupModel;
use parmac_data::partition_equal;
use parmac_hash::{HashFunction, LinearDecoder, LinearHash};
use parmac_linalg::Mat;
use parmac_optim::{LinearSvm, RidgeRegression, SgdConfig, Submodel};
use parmac_retrieval::hamming_knn;
use parmac_retrieval::search::{full_sort_knn, reference as search_reference};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

fn bench_hamming_search(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(0);
    let hash = LinearHash::random(64, 128, &mut rng);
    let database = hash.encode(&Mat::random_normal(50_000, 128, &mut rng));
    let queries = hash.encode(&Mat::random_normal(20, 128, &mut rng));
    for k in [10, 100] {
        c.bench_function(
            &format!("hamming_knn top-k heap (20 q x 50k db, k={k})"),
            |b| b.iter(|| hamming_knn(&database, &queries, k)),
        );
    }
    c.bench_function(
        "hamming_knn full-sort baseline (20 q x 50k db, k=100)",
        |b| b.iter(|| full_sort_knn(&database, &queries, 100)),
    );
}

/// The batched, cache-blocked top-k kernel against the PR-2 per-query heap
/// scan it replaced, at the serving-shaped 64-query batch over 50k codes
/// (acceptance bar: ≥ 2×). Both run in the same invocation so the ratio is
/// host-consistent, and the baseline is the same implementation the
/// bitwise-equivalence tests pin (`parmac_retrieval::search::reference`).
fn bench_batched_topk(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(6);
    let hash = LinearHash::random(64, 128, &mut rng);
    let database = hash.encode(&Mat::random_normal(50_000, 128, &mut rng));
    let queries = hash.encode(&Mat::random_normal(64, 128, &mut rng));
    for k in [10, 100] {
        c.bench_function(
            &format!("batched blocked top-k (64 q x 50k db, k={k})"),
            |b| b.iter(|| hamming_knn(&database, &queries, k)),
        );
        c.bench_function(
            &format!("per-query heap scan, PR-2 baseline (64 q x 50k db, k={k})"),
            |b| b.iter(|| search_reference::per_query_heap_knn(&database, &queries, k)),
        );
    }
}

/// Gray-code exact enumeration vs the naive PR-1 kernel at the paper's code
/// lengths (the acceptance bar is ≥ 5× at L = 16).
fn bench_zstep_exact(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(1);
    for (l, d) in [(10usize, 64usize), (14, 96), (16, 128)] {
        let decoder = LinearDecoder::new(Mat::random_normal(d, l, &mut rng), vec![0.0; d]);
        let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.37).sin()).collect();
        let hx: Vec<f64> = (0..l).map(|i| f64::from(i % 2 == 0)).collect();
        let problem = ZStepProblem::new(&decoder, 0.5);
        let mut workspace = ZStepWorkspace::new(&problem);
        c.bench_function(&format!("z-step exact enumeration (L={l})"), |b| {
            b.iter(|| workspace.solve_exact(&problem, &x, &hx).to_vec())
        });
        c.bench_function(
            &format!("z-step exact enumeration, PR-1 naive kernel (L={l})"),
            |b| b.iter(|| reference::solve_exact(&problem, &x, &hx)),
        );
    }
}

/// Alternating sweep with a shard-reused workspace vs the PR-1 allocating
/// kernel at the paper's (L = 16, D = 128) configuration (bar: ≥ 2×).
fn bench_zstep_alternating(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let (l, d) = (16usize, 128usize);
    let decoder = LinearDecoder::new(Mat::random_normal(d, l, &mut rng), vec![0.0; d]);
    let x: Vec<f64> = (0..d).map(|i| (i as f64 * 0.37).sin()).collect();
    let hx: Vec<f64> = (0..l).map(|i| f64::from(i % 2 == 0)).collect();
    let problem = ZStepProblem::new(&decoder, 0.5);
    let mut workspace = ZStepWorkspace::new(&problem);
    c.bench_function("z-step alternating sweep, workspace (L=16, D=128)", |b| {
        b.iter(|| workspace.solve_alternating(&problem, &x, &hx, 5).to_vec())
    });
    c.bench_function("z-step alternating sweep, PR-1 kernel (L=16, D=128)", |b| {
        b.iter(|| reference::solve_alternating(&problem, &x, &hx, 5))
    });
}

/// Batched multi-RHS relaxed initialisation vs per-point scalar solves over a
/// 512-point shard.
fn bench_zstep_relaxed_batch(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let (l, d, n) = (16usize, 128usize, 512usize);
    let decoder = LinearDecoder::new(Mat::random_normal(d, l, &mut rng), vec![0.0; d]);
    let x = Mat::random_normal(n, d, &mut rng);
    let points: Vec<usize> = (0..n).collect();
    let mut hx = Mat::zeros(n, l);
    for i in 0..n {
        for b in 0..l {
            if (i + b) % 2 == 0 {
                hx[(i, b)] = 1.0;
            }
        }
    }
    let problem = ZStepProblem::new(&decoder, 0.5);
    c.bench_function(
        "relaxed init, batched multi-RHS (N=512, L=16, D=128)",
        |b| b.iter(|| solve_relaxed_batch(&problem, &x, &points, &hx)),
    );
    let mut workspace = ZStepWorkspace::new(&problem);
    c.bench_function("relaxed init, per-point (N=512, L=16, D=128)", |b| {
        b.iter(|| {
            let mut ones = 0usize;
            for (row, &point) in points.iter().enumerate() {
                let z = workspace.solve_relaxed(&problem, x.row(point), hx.row(row));
                ones += z.iter().filter(|&&v| v > 0.5).count();
            }
            ones
        })
    });
}

/// Serial vs shard-parallel execution of a full Z step through the
/// `ClusterBackend` seam: same solves, same updates, different substrate. The
/// ratio of the two lines is the wall-clock speedup of the parallel Z step on
/// this host (first entry of the perf trajectory).
fn bench_zstep_serial_vs_parallel(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let (l, d, n, p) = (16usize, 64usize, 2000usize, 8usize);
    let decoder = LinearDecoder::new(Mat::random_normal(d, l, &mut rng), vec![0.0; d]);
    let x = Mat::random_normal(n, d, &mut rng);
    let hx: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..l).map(|b| f64::from((i + b) % 2 == 0)).collect())
        .collect();
    let cluster = SimCluster::new(
        partition_equal(n, p).into_shards(),
        CostModel::distributed(),
    );
    let solve = |_machine: usize, shard: &[usize]| -> Vec<ZUpdate> {
        let problem = ZStepProblem::new(&decoder, 0.5);
        let mut workspace = ZStepWorkspace::new(&problem);
        shard
            .iter()
            .map(|&i| ZUpdate {
                point: i,
                code: workspace
                    .solve_alternating(&problem, x.row(i), &hx[i], 5)
                    .to_vec(),
            })
            .collect()
    };
    c.bench_function("z step, serial sim backend (N=2000, L=16, P=8)", |b| {
        b.iter(|| SimBackend::default().run_z_step(&cluster, 2 * l, solve))
    });
    c.bench_function(
        "z step, parallel threaded backend (N=2000, L=16, P=8)",
        |b| b.iter(|| ThreadedBackend::new().run_z_step(&cluster, 2 * l, solve)),
    );
}

/// Perf-trajectory entry 3 (`BENCH_pool.json`): the same full Z step on the
/// serial simulator, the one-thread-per-shard threaded backend and the
/// work-stealing pool, over a *balanced* partition (P = cores regime) and an
/// *imbalanced* proportional partition (the regime shard-granular threads
/// cannot balance but chunk stealing can). All variants produce bitwise
/// identical updates; only the substrate differs. The solve closure mirrors
/// the trainer's current Z-step contract (one `ZStepProblem` per step, a
/// workspace checkout pool) so the pool backend is not charged a spurious
/// factorisation per 64-point chunk.
fn bench_zstep_pool_vs_threaded_vs_serial(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(3);
    let (l, d, n, p) = (16usize, 64usize, 2000usize, 8usize);
    let decoder = LinearDecoder::new(Mat::random_normal(d, l, &mut rng), vec![0.0; d]);
    let x = Mat::random_normal(n, d, &mut rng);
    let hx: Vec<Vec<f64>> = (0..n)
        .map(|i| (0..l).map(|b| f64::from((i + b) % 2 == 0)).collect())
        .collect();
    let problem = ZStepProblem::new(&decoder, 0.5);
    let workspaces: std::sync::Mutex<Vec<ZStepWorkspace>> = std::sync::Mutex::new(Vec::new());
    let solve = |_machine: usize, shard: &[usize]| -> Vec<ZUpdate> {
        let mut workspace = workspaces
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_else(|| ZStepWorkspace::new(&problem));
        let updates = shard
            .iter()
            .map(|&i| ZUpdate {
                point: i,
                code: workspace
                    .solve_alternating(&problem, x.row(i), &hx[i], 5)
                    .to_vec(),
            })
            .collect();
        workspaces
            .lock()
            .expect("workspace pool poisoned")
            .push(workspace);
        updates
    };
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    for (label, shards) in [
        ("balanced", partition_equal(n, p).into_shards()),
        (
            // One machine 16× faster than the rest: its shard dwarfs the
            // others, so per-shard threads serialise on it.
            "imbalanced 16:1",
            parmac_data::partition_proportional(n, &[16.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
                .into_shards(),
        ),
    ] {
        let cluster = SimCluster::new(shards, CostModel::distributed());
        c.bench_function(
            &format!("z step, serial sim backend ({label}, N=2000, P=8)"),
            |b| b.iter(|| SimBackend::default().run_z_step(&cluster, 2 * l, solve)),
        );
        c.bench_function(
            &format!("z step, threaded per-shard backend ({label}, N=2000, P=8)"),
            |b| b.iter(|| ThreadedBackend::new().run_z_step(&cluster, 2 * l, solve)),
        );
        for w in [1usize, workers.max(2)] {
            c.bench_function(
                &format!("z step, work-stealing pool ({label}, N=2000, P=8, workers={w})"),
                |b| {
                    b.iter(|| {
                        PoolBackend::new()
                            .with_workers(w)
                            .run_z_step(&cluster, 2 * l, solve)
                    })
                },
            );
        }
    }
}

/// Within-machine W-step parallelism (§8.5): M = 16 submodels circulate over
/// P = 2 machines, so up to 8 submodels queue at one machine at a time. The
/// pool trains a machine's queue concurrently; scaling workers shows the
/// within-machine speedup (1 worker ≈ the serialised queue).
fn bench_wstep_within_machine(c: &mut Criterion) {
    let shards = partition_equal(2000, 2).into_shards();
    let cluster = SimCluster::new(shards, CostModel::shared_memory());
    let mut rng = SmallRng::seed_from_u64(4);
    let x = Mat::random_normal(2000, 64, &mut rng);
    let update = |svm: &mut LinearSvm, _machine: usize, shard: &[usize]| {
        let y: Vec<f64> = shard
            .iter()
            .map(|&i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        svm.fit_indexed(&x, shard.iter().copied(), &y, 1);
    };
    let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
    for w in [1usize, workers.max(2)] {
        c.bench_function(
            &format!("W step, pool within-machine (M=16, P=2, workers={w})"),
            |b| {
                b.iter_batched(
                    || {
                        (0..16)
                            .map(|_| LinearSvm::new(64, SgdConfig::new().with_eta0(0.01)))
                            .collect::<Vec<_>>()
                    },
                    |submodels| {
                        PoolBackend::new()
                            .with_workers(w)
                            .run_w_step(&cluster, submodels, 1, 65, update, None)
                    },
                    BatchSize::SmallInput,
                )
            },
        );
    }
}

fn bench_svm_epoch(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(2);
    let x = Mat::random_normal(2000, 128, &mut rng);
    let y: Vec<f64> = (0..2000)
        .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    c.bench_function("linear SVM, one SGD epoch (N=2000, D=128)", |b| {
        b.iter_batched(
            || LinearSvm::new(128, SgdConfig::new().with_eta0(0.01)),
            |mut svm| {
                svm.fit_batch(&x, &y, 1);
                svm.n_parameters()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Runs `routine` as the benchmark `name` and returns its mean ns per call
/// over everything the harness ran (calibration included), or `None` when a
/// command-line filter skipped it.
fn timed(c: &mut Criterion, name: &str, mut routine: impl FnMut()) -> Option<f64> {
    let mut calls = 0u64;
    let mut total = Duration::ZERO;
    c.bench_function(name, |b| {
        let start = Instant::now();
        b.iter(|| {
            calls += 1;
            routine()
        });
        total = start.elapsed();
    });
    (calls > 0).then(|| total.as_nanos() as f64 / calls as f64)
}

/// One W-step machine visit, before/after shaped: the indexed driver reading
/// the shard in place against the copy-then-fit visit it replaced (gather the
/// shuffled shard into a fresh matrix, then `fit_batch`), for an encoder-bit
/// SVM over `X` rows and a decoder-row ridge over bit-packed codes. Same
/// arithmetic, same run, so the printed ratio is what the zero-copy visit
/// saves on this host.
fn bench_wstep_visit_indexed_vs_copy(c: &mut Criterion) {
    const N: usize = 1200;
    let mut rng = SmallRng::seed_from_u64(7);
    let x = Mat::random_normal(N, 128, &mut rng);
    let codes = LinearHash::random(16, 128, &mut rng).encode(&x);
    let mut order: Vec<usize> = (0..N).collect();
    order.shuffle(&mut rng);
    let labels: Vec<f64> = order
        .iter()
        .map(|&n| if codes.bit(n, 0) { 1.0 } else { -1.0 })
        .collect();
    let targets: Vec<f64> = order.iter().map(|&n| x[(n, 0)]).collect();
    let config = SgdConfig::new().with_eta0(0.01);

    let svm_indexed = timed(c, "W visit, SVM indexed in place (n=1200, D=128)", || {
        let mut svm = LinearSvm::new(128, config);
        svm.fit_indexed(&x, order.iter().copied(), &labels, 1);
        black_box(svm.bias());
    });
    let svm_copy = timed(c, "W visit, SVM copy-then-fit (n=1200, D=128)", || {
        let mut svm = LinearSvm::new(128, config);
        svm.fit_batch(&x.select_rows(&order), &labels, 1);
        black_box(svm.bias());
    });
    let ridge_indexed = timed(c, "W visit, ridge indexed in place (n=1200, L=16)", || {
        let mut ridge = RidgeRegression::new(16, config);
        ridge.fit_indexed(&codes, order.iter().copied(), &targets, 1);
        black_box(ridge.bias());
    });
    let ridge_copy = timed(c, "W visit, ridge copy-then-fit (n=1200, L=16)", || {
        let mut zs = Mat::zeros(order.len(), codes.n_bits());
        for (row, &n) in order.iter().enumerate() {
            zs.set_row(row, &codes.to_f64_row(n));
        }
        let mut ridge = RidgeRegression::new(16, config);
        ridge.fit_batch(&zs, &targets, 1);
        black_box(ridge.bias());
    });
    for (kind, indexed, copy) in [
        ("SVM", svm_indexed, svm_copy),
        ("ridge", ridge_indexed, ridge_copy),
    ] {
        if let (Some(indexed), Some(copy)) = (indexed, copy) {
            println!(
                "W visit, {kind}: copy-then-fit / indexed = {:.2}x  ({:.1} vs {:.1} ns/point)",
                copy / indexed,
                copy / N as f64,
                indexed / N as f64
            );
        }
    }
}

fn bench_ring_w_step(c: &mut Criterion) {
    let shards = partition_equal(4000, 16).into_shards();
    let cluster = SimCluster::new(shards, CostModel::distributed());
    c.bench_function(
        "simulated ring W step (M=32, P=16, bookkeeping only)",
        |b| {
            b.iter(|| {
                let mut submodels = vec![0u64; 32];
                cluster.run_w_step(
                    &mut submodels,
                    1,
                    129,
                    |s, _, shard| *s += shard.len() as u64,
                    None,
                )
            })
        },
    );
}

fn bench_speedup_model(c: &mut Criterion) {
    let model = SpeedupModel::figure4();
    c.bench_function("speedup model full curve to P=2048", |b| {
        b.iter(|| model.curve(2048))
    });
}

/// The serving fan-out of the server backend: `QueryRouter::knn` routes a
/// query batch to P resident shard actors and merges the per-shard top-k,
/// benchmarked against the single-process `hamming_knn` over the same 50k
/// codes. The gap is the message-passing + merge overhead one pays for
/// serving from the training processes (per `ring_hops` there is no W-step
/// traffic involved: queries fan out P ways and reply once each, 2·P
/// messages per batch).
fn bench_server_query_routing(c: &mut Criterion) {
    use parmac_cluster::ServerBackend;
    let mut rng = SmallRng::seed_from_u64(5);
    let hash = LinearHash::random(64, 128, &mut rng);
    let database = hash.encode(&Mat::random_normal(50_000, 128, &mut rng));
    let queries = hash.encode(&Mat::random_normal(20, 128, &mut rng));
    for p in [4usize, 16] {
        let shards = partition_equal(database.len(), p).into_shards();
        let cluster = SimCluster::new(shards, CostModel::distributed());
        let backend = ServerBackend::new();
        backend.publish_codes(&cluster, &database);
        let router = backend.query_router();
        c.bench_function(
            &format!("server knn fan-out + merge (20 q x 50k db, k=100, P={p})"),
            |b| b.iter(|| router.knn(&queries, 100).expect_full()),
        );
    }
    c.bench_function(
        "single-process hamming_knn baseline (20 q x 50k db, k=100)",
        |b| b.iter(|| hamming_knn(&database, &queries, 100)),
    );
}

criterion_group!(
    benches,
    bench_hamming_search,
    bench_batched_topk,
    bench_zstep_exact,
    bench_zstep_alternating,
    bench_zstep_relaxed_batch,
    bench_zstep_serial_vs_parallel,
    bench_zstep_pool_vs_threaded_vs_serial,
    bench_wstep_within_machine,
    bench_svm_epoch,
    bench_wstep_visit_indexed_vs_copy,
    bench_ring_w_step,
    bench_speedup_model,
    bench_server_query_routing
);
criterion_main!(benches);
