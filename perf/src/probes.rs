//! The per-layer ledger: each layer's public functions timed from here on
//! the workload's own data, after the timed windows, each probe inside its
//! own span. Names are the ones later issues refer to.

use crate::report::Report;
use crate::spec::{Workload, BACKENDS, K_NEIGHBOURS};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::Serving;
use parmac_cluster::process::Frame;
use parmac_cluster::{
    ClusterBackend, PoolBackend, ProcessBackend, ServerBackend, SimBackend, SimCluster,
    SubmodelEnvelope, ThreadedBackend, WireCode, ZShardUpdates, ZUpdate,
};
use parmac_core::mac::{calibrate_decoder_sgd, calibrate_encoder_sgd};
use parmac_core::zstep::{self, ZStepProblem, ZStepWorkspace};
use parmac_core::{BinaryAutoencoder, ParMacConfig, ZStepMethod};
use parmac_data::partition_equal;
use parmac_hash::popcount::{block_hamming, block_hamming_scalar};
use parmac_hash::{BinaryCodes, HashFunction, LinearDecoder};
use parmac_linalg::{Cholesky, Mat};
use parmac_optim::{LinearSvm, RidgeRegression};
use parmac_retrieval::{merge_shard_topk, shard_hamming_topk_batched, PrefixIndex};
use std::hint::black_box;
use std::time::Instant;

/// A probe repeats its call until this much time is spent (three calls at
/// least) and reports the median call.
const MIN_PROBE_SECS: f64 = 0.03;
/// Enumeration is probed at this many bits at most: the reference kernel
/// walks all 2^L codes with a full decode each.
const ENUM_BITS: usize = 12;

/// Median seconds per call of `f` and the number of calls behind it.
fn per_call(mut f: impl FnMut()) -> (f64, usize) {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 3 || begun.elapsed().as_secs_f64() < MIN_PROBE_SECS {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
        if samples.len() >= 1000 {
            break;
        }
    }
    (median(&samples), samples.len())
}

pub struct Ctx<'a> {
    pub w: &'a Workload,
    pub cfg: ParMacConfig,
    pub x: &'a Mat,
    /// The trained model and codes of the reference (sim) run.
    pub model: &'a BinaryAutoencoder,
    pub codes: &'a BinaryCodes,
    pub serving: &'a Serving,
    pub tracer: &'a Tracer,
}

impl Ctx<'_> {
    fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.tracer.scope(name, None, "probe", None, |_| f())
    }

    /// The training cluster's first shard: what one machine visit sees.
    fn shard(&self) -> Vec<usize> {
        partition_equal(self.x.rows(), self.w.machines)
            .shard(0)
            .to_vec()
    }
}

/// Medians of the probes the speed-up model and the reconstruction are
/// built from.
pub struct Constants {
    pub svm_ns_per_point: f64,
    pub ridge_ns_per_point: f64,
    /// What a visit spends assembling its SGD pass's inputs, per point.
    pub gather_svm_ns_per_point: f64,
    pub gather_ridge_ns_per_point: f64,
    pub encode_ns_per_point: f64,
    /// The Z kernel the workload's config resolves to.
    pub zstep_ns_per_point: f64,
    pub calibrate_s_per_iter: f64,
    /// Seconds of one no-op W step and one no-op Z step per backend.
    pub w_noop_s: [f64; 5],
    pub z_noop_s: [f64; 5],
}

pub fn run_all(ctx: &Ctx<'_>, report: &mut Report) -> Constants {
    ctx.span("probe.linalg", || linalg(ctx, report));
    let (svm, ridge) = ctx.span("probe.optim", || optim(ctx, report));
    let (gather_svm, gather_ridge) = ctx.span("probe.core.gather", || visit_gather(ctx, report));
    let encode = ctx.span("probe.hash", || hash(ctx, report));
    let (zstep, calibrate) = ctx.span("probe.core", || core(ctx, report));
    let (w_noop_s, z_noop_s) = ctx.span("probe.cluster.ring", || ring(ctx, report));
    ctx.span("probe.cluster.wire", || wire(ctx, report));
    let indexes = shard_indexes(ctx.serving);
    ctx.span("probe.cluster.serving", || serving(ctx, &indexes, report));
    ctx.span("probe.retrieval", || retrieval(ctx, &indexes, report));
    Constants {
        svm_ns_per_point: svm,
        ridge_ns_per_point: ridge,
        gather_svm_ns_per_point: gather_svm,
        gather_ridge_ns_per_point: gather_ridge,
        encode_ns_per_point: encode,
        zstep_ns_per_point: zstep,
        calibrate_s_per_iter: calibrate,
        w_noop_s,
        z_noop_s,
    }
}

/// `Cholesky::new` and `solve_mat` at L × L, on the matrix the relaxed Z
/// start factorises: WᵀW + µI of the trained decoder.
fn linalg(ctx: &Ctx<'_>, report: &mut Report) {
    let l = ctx.w.bits;
    let mut gram = ctx.model.decoder().weights().gram();
    for i in 0..l {
        gram[(i, i)] += 1.0;
    }
    let (factor_s, n) = per_call(|| {
        black_box(Cholesky::new(black_box(&gram)).is_ok());
    });
    report.push("linalg.chol_factor_ns", factor_s * 1e9, "ns", n);
    let chol = Cholesky::new(&gram).expect("WᵀW + I is positive definite");
    let rhs_cols = 256;
    let rhs = Mat::filled(l, rhs_cols, 0.5);
    let (solve_s, n) = per_call(|| {
        black_box(chol.solve_mat(black_box(&rhs)).is_ok());
    });
    report.push(
        "linalg.chol_solve_ns_per_rhs",
        solve_s * 1e9 / rhs_cols as f64,
        "ns",
        n,
    );
}

/// One `fit_batch` pass over a machine's shard: an encoder-bit SVM on
/// (X, z_bit) and a decoder-row ridge on (Z, x_dim).
fn optim(ctx: &Ctx<'_>, report: &mut Report) -> (f64, f64) {
    let shard = ctx.shard();
    let sgd = ctx.cfg.ba.sgd.with_minibatch_size(ctx.cfg.minibatch_size);
    let xs = ctx.x.select_rows(&shard);
    let labels: Vec<f64> = shard
        .iter()
        .map(|&p| if ctx.codes.bit(p, 0) { 1.0 } else { -1.0 })
        .collect();
    let (svm_s, n) = per_call(|| {
        let mut svm = LinearSvm::new(ctx.w.d, sgd);
        svm.fit_batch(black_box(&xs), &labels, 1);
        black_box(svm.bias());
    });
    let svm_ns = svm_s * 1e9 / shard.len() as f64;
    report.push("optim.svm_pass_ns_per_point", svm_ns, "ns", n);

    let mut zs = Mat::zeros(shard.len(), ctx.w.bits);
    for (row, &p) in shard.iter().enumerate() {
        zs.set_row(row, &ctx.codes.to_f64_row(p));
    }
    let targets: Vec<f64> = shard.iter().map(|&p| ctx.x[(p, 0)]).collect();
    let (ridge_s, n) = per_call(|| {
        let mut ridge = RidgeRegression::new(ctx.w.bits, sgd);
        ridge.fit_batch(black_box(&zs), &targets, 1);
        black_box(ridge.bias());
    });
    let ridge_ns = ridge_s * 1e9 / shard.len() as f64;
    report.push("optim.ridge_pass_ns_per_point", ridge_ns, "ns", n);
    (svm_ns, ridge_ns)
}

/// What a machine visit does before its SGD pass, with the same public
/// calls `parmac-core` makes: gather the shard's rows of X and the ±1
/// targets for an encoder bit; unpack the shard's codes into a 0/1 matrix
/// and gather one column of X for a decoder row.
fn visit_gather(ctx: &Ctx<'_>, report: &mut Report) -> (f64, f64) {
    let shard = ctx.shard();
    let (svm_s, n) = per_call(|| {
        let xs = ctx.x.select_rows(black_box(&shard));
        let targets: Vec<f64> = shard
            .iter()
            .map(|&p| if ctx.codes.bit(p, 0) { 1.0 } else { -1.0 })
            .collect();
        black_box((xs.rows(), targets.len()));
    });
    let svm_ns = svm_s * 1e9 / shard.len() as f64;
    report.push("core.visit_gather_svm_ns_per_point", svm_ns, "ns", n);
    let (ridge_s, n) = per_call(|| {
        let mut zs = Mat::zeros(shard.len(), ctx.w.bits);
        for (row, &p) in shard.iter().enumerate() {
            zs.set_row(row, &ctx.codes.to_f64_row(p));
        }
        let targets: Vec<f64> = shard.iter().map(|&p| ctx.x[(p, 0)]).collect();
        black_box((zs.rows(), targets.len()));
    });
    let ridge_ns = ridge_s * 1e9 / shard.len() as f64;
    report.push("core.visit_gather_ridge_ns_per_point", ridge_ns, "ns", n);
    (svm_ns, ridge_ns)
}

/// `LinearHash::encode` over X, and `block_hamming` against its scalar
/// reference over the served corpus in the same run.
fn hash(ctx: &Ctx<'_>, report: &mut Report) -> f64 {
    let (encode_s, n) = per_call(|| {
        black_box(ctx.model.encoder().encode(black_box(ctx.x)));
    });
    let encode_ns = encode_s * 1e9 / ctx.x.rows() as f64;
    report.push("hash.encode_ns_per_point", encode_ns, "ns", n);

    let corpus = &ctx.serving.corpus;
    let query = ctx.serving.batches[0].code_words(0).to_vec();
    let mut out = vec![0u32; corpus.len()];
    let (simd_s, n) = per_call(|| {
        block_hamming(black_box(corpus.as_words()), &query, &mut out);
        black_box(out[0]);
    });
    report.push(
        "hash.popcount_ns_per_code",
        simd_s * 1e9 / corpus.len() as f64,
        "ns",
        n,
    );
    let (scalar_s, n) = per_call(|| {
        block_hamming_scalar(black_box(corpus.as_words()), &query, &mut out);
        black_box(out[0]);
    });
    report.push(
        "hash.popcount_scalar_ns_per_code",
        scalar_s * 1e9 / corpus.len() as f64,
        "ns",
        n,
    );
    encode_ns
}

/// The decoder cut down to its first `bits` columns, for the enumeration
/// probes on wide codes.
fn truncated_decoder(decoder: &LinearDecoder, bits: usize) -> LinearDecoder {
    let mut weights = Mat::zeros(decoder.dim_out(), bits);
    for d in 0..decoder.dim_out() {
        weights
            .row_mut(d)
            .copy_from_slice(&decoder.weights().row(d)[..bits]);
    }
    LinearDecoder::new(weights, decoder.biases().to_vec())
}

/// `solve_shard_chunk` per Z method, the reference enumeration beside the
/// optimised one, and the per-W-step calibration.
fn core(ctx: &Ctx<'_>, report: &mut Report) -> (f64, f64) {
    let mu = ctx.cfg.ba.mu_schedule.value(ctx.w.iterations - 1);
    let shard = ctx.shard();
    let chunk = &shard[..shard.len().min(256)];
    let decoder = ctx.model.decoder();

    let time_method = |method: ZStepMethod, decoder: &LinearDecoder, points: &[usize]| {
        let bits = decoder.n_bits();
        let problem = ZStepProblem::new(decoder, mu);
        let mut hx = zstep::encoder_outputs(ctx.x, points, ctx.w.bits, |row| {
            ctx.model.encoder().encode_one(row)
        });
        if bits < ctx.w.bits {
            let mut cut = Mat::zeros(points.len(), bits);
            for r in 0..points.len() {
                cut.row_mut(r).copy_from_slice(&hx.row(r)[..bits]);
            }
            hx = cut;
        }
        let mut workspace = ZStepWorkspace::new(&problem);
        let (secs, n) = per_call(|| {
            zstep::solve_shard_chunk(
                method,
                &problem,
                ctx.x,
                points,
                &hx,
                ctx.cfg.ba.z_alternations,
                &mut workspace,
                |_, z| {
                    black_box(z[0]);
                },
            );
        });
        (secs * 1e9 / points.len() as f64, n)
    };

    let (alt_ns, n) = time_method(ZStepMethod::AlternatingBits, decoder, chunk);
    report.push("core.zstep_alt_ns_per_point", alt_ns, "ns", n);
    let (relaxed_ns, n) = time_method(ZStepMethod::RelaxedOnly, decoder, chunk);
    report.push("core.zstep_relaxed_ns_per_point", relaxed_ns, "ns", n);

    let enum_bits = ctx.w.bits.min(ENUM_BITS);
    let cut = truncated_decoder(decoder, enum_bits);
    let enum_points = &chunk[..chunk.len().min(64)];
    let (enum_ns, n) = time_method(ZStepMethod::Enumeration, &cut, enum_points);
    report.push("core.zstep_enum_ns_per_point", enum_ns, "ns", n);

    // The PR-1 reference enumeration on the same problem, a few points.
    let problem = ZStepProblem::new(&cut, mu);
    let ref_points = &enum_points[..enum_points.len().min(4)];
    let hx: Vec<Vec<f64>> = ref_points
        .iter()
        .map(|&p| {
            let bits = ctx.model.encoder().encode_one(ctx.x.row(p));
            zstep::encoder_output_as_f64(&bits[..enum_bits])
        })
        .collect();
    let (ref_s, n) = per_call(|| {
        for (row, &p) in ref_points.iter().enumerate() {
            black_box(zstep::reference::solve_exact(
                &problem,
                ctx.x.row(p),
                &hx[row],
            ));
        }
    });
    report.push(
        "core.zstep_ref_ns_per_point",
        ref_s * 1e9 / ref_points.len() as f64,
        "ns",
        n,
    );

    let (calibrate_s, n) = per_call(|| {
        black_box(calibrate_encoder_sgd(ctx.cfg.ba.sgd, ctx.x, ctx.codes));
        black_box(calibrate_decoder_sgd(ctx.cfg.ba.sgd, ctx.codes, ctx.x));
    });
    report.push("core.calibrate_s_per_iter", calibrate_s, "s", n);

    let in_effect = match ctx.cfg.ba.resolved_z_method() {
        ZStepMethod::Enumeration => enum_ns,
        ZStepMethod::RelaxedOnly => relaxed_ns,
        _ => alt_ns,
    };
    (in_effect, calibrate_s)
}

/// `run_w_step`/`run_z_step` called directly with no-op closures on the
/// workload's topology: what the protocol alone costs on each backend.
fn ring(ctx: &Ctx<'_>, report: &mut Report) -> ([f64; 5], [f64; 5]) {
    let w = ctx.w;
    let submodels = w.bits + w.d;
    let visits = (submodels * w.machines * w.epochs) as f64;
    let shards = partition_equal(ctx.x.rows(), w.machines).into_shards();
    let mut w_noop = [0.0; 5];
    let mut z_noop = [0.0; 5];

    fn noop<B: ClusterBackend>(
        backend: &B,
        shards: &[Vec<usize>],
        submodels: usize,
        epochs: usize,
        params: usize,
    ) -> (f64, f64, f64, usize) {
        let cluster = SimCluster::new(shards.to_vec(), backend.cost_model());
        let w_step = || {
            let (out, stats) = backend.run_w_step(
                &cluster,
                vec![0u64; submodels],
                epochs,
                params,
                |_: &mut u64, _, _| {},
                None,
            );
            black_box((out.len(), stats.messages_sent));
        };
        // The first step pays whatever the backend starts lazily (worker
        // processes, actors); the timed ones run warm.
        let cold = Instant::now();
        w_step();
        let first = cold.elapsed().as_secs_f64();
        let (w_secs, n) = per_call(w_step);
        let (z_secs, _) = per_call(|| {
            let (updates, stats) = backend.run_z_step(&cluster, submodels, |_, _| Vec::new());
            black_box((updates.len(), stats.points_updated));
        });
        (first, w_secs, z_secs, n)
    }

    for (b, name) in BACKENDS.iter().enumerate() {
        let (first, w_secs, z_secs, n) = match *name {
            "sim" => noop(
                &SimBackend::default(),
                &shards,
                submodels,
                w.epochs,
                w.d + 1,
            ),
            "threaded" => noop(
                &ThreadedBackend::new(),
                &shards,
                submodels,
                w.epochs,
                w.d + 1,
            ),
            "pool" => noop(
                &PoolBackend::new().with_workers(w.machines),
                &shards,
                submodels,
                w.epochs,
                w.d + 1,
            ),
            "server" => noop(&ServerBackend::new(), &shards, submodels, w.epochs, w.d + 1),
            _ => {
                let out = noop(
                    &ProcessBackend::new(),
                    &shards,
                    submodels,
                    w.epochs,
                    w.d + 1,
                );
                report.push("cluster.fleet_launch_s", (out.0 - out.1).max(0.0), "s", 1);
                out
            }
        };
        black_box(first);
        w_noop[b] = w_secs;
        z_noop[b] = z_secs;
        report.push(
            format!("cluster.w_noop_ns_per_visit.{name}"),
            w_secs * 1e9 / visits,
            "ns",
            n,
        );
        report.push(
            format!("cluster.z_noop_ns_per_point.{name}"),
            z_secs * 1e9 / ctx.x.rows() as f64,
            "ns",
            n,
        );
    }
    (w_noop, z_noop)
}

/// `WireCode` encode + decode of the three things that cross a boundary.
fn wire(ctx: &Ctx<'_>, report: &mut Report) {
    fn round_trip<T: WireCode>(value: &T) -> (f64, usize) {
        let bytes = value.to_wire().len();
        let (secs, n) = per_call(|| {
            let wire = black_box(value).to_wire();
            black_box(T::from_wire(&wire).is_ok());
        });
        (secs * 1e9 / bytes as f64, n)
    }
    let machines: Vec<usize> = (0..ctx.w.machines).collect();
    let envelope = SubmodelEnvelope::new(0, vec![0.5f64; ctx.w.d + 1], &machines);
    let (ns, n) = round_trip(&envelope);
    report.push("cluster.wire_envelope_ns_per_byte", ns, "ns", n);

    let updates = ZShardUpdates {
        machine: 0,
        updates: (0..256.min(ctx.codes.len()))
            .map(|p| ZUpdate {
                point: p,
                code: ctx.codes.to_f64_row(p),
            })
            .collect(),
    };
    let (ns, n) = round_trip(&updates);
    report.push("cluster.wire_zupdates_ns_per_byte", ns, "ns", n);

    let frame = Frame::Envelope {
        round: 1,
        generation: 0,
        envelope: SubmodelEnvelope::new(0, (), &machines),
    };
    let (ns, n) = round_trip(&frame);
    report.push("cluster.wire_frame_ns_per_byte", ns, "ns", n);
}

/// The serving path taken apart on the quiesced fleet: publish, direct
/// fan-out, what admission adds to it, what the fan-out adds to the slowest
/// shard's own index probe, and the admission counters.
fn serving(ctx: &Ctx<'_>, indexes: &[PrefixIndex], report: &mut Report) {
    let s = ctx.serving;
    let (publish_s, n) = per_call(|| s.server.publish_codes(&s.cluster, &s.corpus));
    report.push("cluster.publish_s", publish_s, "s", n);

    let batch = &s.batches[0];
    let (direct_s, n) = per_call(|| {
        black_box(s.router.knn_shared(batch, K_NEIGHBOURS).coverage.is_full());
    });
    report.push("cluster.knn_direct_us", direct_s * 1e6, "us", n);
    let (admitted_s, n) = per_call(|| {
        black_box(s.router.knn_admitted(batch.clone(), K_NEIGHBOURS).is_ok());
    });
    report.push(
        "cluster.admission_added_us",
        (admitted_s - direct_s) * 1e6,
        "us",
        n,
    );

    let slowest_shard_s = indexes
        .iter()
        .map(|index| {
            per_call(|| {
                black_box(index.topk_batched(batch, K_NEIGHBOURS, None));
            })
            .0
        })
        .fold(0.0, f64::max);
    report.push(
        "cluster.fanout_added_us",
        (direct_s - slowest_shard_s) * 1e6,
        "us",
        n,
    );

    let stats = s.router.serving_stats();
    let submitted = stats.submitted.max(1) as f64;
    let n = stats.submitted as usize;
    report.push(
        "cluster.coalesced_share",
        stats.coalesced as f64 / submitted,
        "share",
        n,
    );
    report.push(
        "cluster.batches_per_call",
        stats.batches as f64 / stats.answered.max(1) as f64,
        "ratio",
        n,
    );
    report.push("cluster.shed", stats.shed as f64, "count", n);
    report.push("cluster.failovers", stats.failovers as f64, "count", n);
    report.push("cluster.degraded", stats.degraded as f64, "count", n);
}

/// The codes of machine `m`'s shard of the served corpus, in shard order.
fn shard_codes(s: &Serving, m: usize) -> BinaryCodes {
    let mut codes = BinaryCodes::zeros(0, s.corpus.n_bits());
    for &p in s.cluster.shard(m) {
        codes.push_code_from(&s.corpus, p);
    }
    codes
}

/// One `PrefixIndex` per shard of the served corpus, as the fleet holds them.
fn shard_indexes(s: &Serving) -> Vec<PrefixIndex> {
    (0..s.cluster.n_machines())
        .map(|m| PrefixIndex::build(&shard_codes(s, m), s.cluster.shard(m)))
        .collect()
}

/// `PrefixIndex` build, probe (against the full scan in the same run) and
/// upsert on one shard of the served corpus, and the top-k merge.
fn retrieval(ctx: &Ctx<'_>, indexes: &[PrefixIndex], report: &mut Report) {
    let s = ctx.serving;
    let ids = s.cluster.shard(0);
    let shard = shard_codes(s, 0);
    let batch = &s.batches[0];
    let scanned = (batch.len() * shard.len()) as f64;

    let (build_s, n) = per_call(|| {
        black_box(PrefixIndex::build(black_box(&shard), ids).len());
    });
    report.push(
        "retrieval.index_build_ns_per_code",
        build_s * 1e9 / shard.len() as f64,
        "ns",
        n,
    );
    let index = &indexes[0];
    let (topk_s, n) = per_call(|| {
        black_box(index.topk_batched(batch, K_NEIGHBOURS, None));
    });
    report.push(
        "retrieval.index_topk_ns_per_code",
        topk_s * 1e9 / scanned,
        "ns",
        n,
    );
    let (scan_s, n) = per_call(|| {
        black_box(shard_hamming_topk_batched(&shard, ids, batch, K_NEIGHBOURS));
    });
    report.push(
        "retrieval.fullscan_ns_per_code",
        scan_s * 1e9 / scanned,
        "ns",
        n,
    );

    // A Z step's writes: each point takes the code of the point half a
    // shard away, so most upserts move between buckets.
    let moves = ids.len().min(256);
    let (upsert_s, n) = per_call(|| {
        let mut index = index.clone();
        for (i, &id) in ids.iter().enumerate().take(moves) {
            index.upsert_code(id, &shard, (i + shard.len() / 2) % shard.len());
        }
        black_box(index.len());
    });
    let (clone_s, _) = per_call(|| {
        black_box(index.clone().len());
    });
    report.push(
        "retrieval.index_upsert_ns",
        (upsert_s - clone_s).max(0.0) * 1e9 / moves as f64,
        "ns",
        n,
    );

    let per_shard: Vec<Vec<Vec<(u32, usize)>>> = indexes
        .iter()
        .map(|index| index.topk_batched(batch, K_NEIGHBOURS, None))
        .collect();
    let (merge_s, n) = per_call(|| {
        for q in 0..batch.len() {
            let lists: Vec<Vec<(u32, usize)>> =
                per_shard.iter().map(|hits| hits[q].clone()).collect();
            black_box(merge_shard_topk(&lists, K_NEIGHBOURS));
        }
    });
    report.push(
        "retrieval.merge_ns_per_query",
        merge_s * 1e9 / batch.len() as f64,
        "ns",
        n,
    );
}
