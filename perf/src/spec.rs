//! The five workloads: every shape parameter, loop type and rate lives here
//! and nowhere else. `BENCHMARK.json` carries only each workload's name and
//! one-line reason (its schema allows nothing more); the parameters are
//! printed with every result and tabulated in `README.md`.
//!
//! A workload is one deployment: a training shape run on all five backends
//! and a query load against the `ServerBackend` fleet. The name says which
//! half carries the weight. Every workload reports every end-to-end metric,
//! because the driver gates each (metric, workload) pair.

use parmac_core::{BaConfig, ParMacConfig};

/// The five execution engines behind `ClusterBackend`, in reporting order.
pub const BACKENDS: [&str; 5] = ["sim", "threaded", "pool", "server", "process"];

/// Queries per `knn_admitted` call and neighbours asked for, on every
/// workload.
pub const QUERIES_PER_CALL: usize = 8;
pub const K_NEIGHBOURS: usize = 10;
/// Prebuilt query batches the load generators cycle through.
pub const QUERY_BATCHES: usize = 64;
/// Load-generator threads (clients of the closed loop, senders of the open
/// loop). The issue caps the benchmark at two.
pub const LOAD_THREADS: usize = 2;

/// What the fleet serves once training is over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Corpus {
    /// The trainer's final codes, as the run left them in the fleet.
    Trained,
    /// `n` uniform random codes of the training shape's width, published
    /// over the fleet with `publish_codes`: uniform codes defeat
    /// `PrefixIndex` pruning, so the per-code scan is nearly all of a call.
    Uniform { n: usize },
}

/// How the latency window drives `QueryRouter::knn_admitted`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyLoop {
    /// `LOAD_THREADS` clients, each sending its next call when the previous
    /// one returns, against the quiesced fleet; latency from send. The
    /// traced run adds an open-loop window on the quiesced fleet at
    /// `traced_calls_per_s` (over all senders).
    ClosedQuiesced { traced_calls_per_s: f64 },
    /// `LOAD_THREADS` senders on a fixed schedule totalling `calls_per_s`,
    /// while the `ServerBackend` run of every pass trains; latency from the
    /// due time.
    OpenUnderTraining { calls_per_s: f64 },
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Training shape: N points of D dimensions, L bits, e epochs per W step,
    /// P machines, K MAC iterations, µ schedule.
    pub n: usize,
    pub d: usize,
    pub bits: usize,
    pub epochs: usize,
    pub machines: usize,
    pub iterations: usize,
    pub mu0: f64,
    pub mu_factor: f64,
    pub corpus: Corpus,
    pub latency_loop: LatencyLoop,
    /// Share of `--seconds` given to training; the rest is the quiesced
    /// closed loop — cut into slices between the training runs on a trained
    /// corpus, one window after the passes on the uniform one.
    pub train_share: f64,
    /// Latency limit behind `serve_slo_ok_share`, in ms.
    pub slo_ms: f64,
}

impl Workload {
    /// The `ParMacConfig` every backend runs; `--seed` is the `BaConfig` seed.
    pub fn config(&self, seed: u64) -> ParMacConfig {
        let ba = BaConfig::new(self.bits)
            .with_mu_schedule(self.mu0, self.mu_factor, self.iterations)
            .with_epochs(self.epochs)
            .with_seed(seed);
        ParMacConfig::new(ba, self.machines)
    }

    /// Shrunken sizes for `--smoke`: same shape, same checks, timings not
    /// judged.
    pub fn smoke(mut self) -> Self {
        self.n = (self.n / 8).max(4 * self.machines).max(128);
        self.iterations = self.iterations.min(2);
        self.epochs = self.epochs.min(2);
        if let Corpus::Uniform { n } = self.corpus {
            self.corpus = Corpus::Uniform { n: n / 20 };
        }
        self
    }

    /// One line of parameters, printed with every result.
    pub fn params_json(&self) -> String {
        let corpus = match self.corpus {
            Corpus::Trained => "\"trained\"".to_string(),
            Corpus::Uniform { n } => format!("{{\"uniform_codes\": {n}}}"),
        };
        let (loop_kind, rate) = match self.latency_loop {
            LatencyLoop::ClosedQuiesced { .. } => ("closed", 0.0),
            LatencyLoop::OpenUnderTraining { calls_per_s } => ("open", calls_per_s),
        };
        format!(
            "{{\"n\": {}, \"d\": {}, \"bits\": {}, \"epochs\": {}, \
             \"machines\": {}, \"iterations\": {}, \"mu0\": {}, \"mu_factor\": {}, \
             \"corpus\": {corpus}, \"latency_loop\": \"{loop_kind}\", \
             \"open_calls_per_s\": {rate}, \"load_threads\": {LOAD_THREADS}, \
             \"queries_per_call\": {QUERIES_PER_CALL}, \"k\": {K_NEIGHBOURS}, \
             \"train_share\": {}, \"slo_ms\": {}}}",
            self.n,
            self.d,
            self.bits,
            self.epochs,
            self.machines,
            self.iterations,
            self.mu0,
            self.mu_factor,
            self.train_share,
            self.slo_ms
        )
    }
}

/// The workloads, in reporting order. Sizes are the issue's shapes with N
/// scaled so that five interleaved passes over the five backends, and the
/// serving between them, fit a 20 s run on a 2-core host.
pub const WORKLOADS: [Workload; 5] = [
    // W-step SGD dominates the serial iteration: `parmac-optim` and the
    // ring's parallel efficiency do the work, the alternating-bits Z kernel
    // little.
    Workload {
        name: "train_wheavy",
        n: 2400,
        d: 128,
        bits: 16,
        epochs: 4,
        machines: 2,
        iterations: 3,
        mu0: 0.01,
        mu_factor: 2.0,
        corpus: Corpus::Trained,
        latency_loop: LatencyLoop::ClosedQuiesced {
            traced_calls_per_s: 500.0,
        },
        train_share: 0.8,
        slo_ms: 10.0,
    },
    // Z step by enumeration (4096 codes per point) dominates:
    // `parmac-core::zstep` does the work, SGD and the ring almost none.
    Workload {
        name: "train_zheavy",
        n: 2400,
        d: 32,
        bits: 12,
        epochs: 1,
        machines: 2,
        iterations: 3,
        mu0: 0.01,
        mu_factor: 2.0,
        corpus: Corpus::Trained,
        latency_loop: LatencyLoop::ClosedQuiesced {
            traced_calls_per_s: 500.0,
        },
        train_share: 0.75,
        slo_ms: 10.0,
    },
    // The W-step layer used the other way round: 3072 visits per iteration
    // on 64-point shards, so envelopes, wire codec, channel and socket hops
    // and scheduling dominate.
    Workload {
        name: "train_hops",
        n: 256,
        d: 64,
        bits: 32,
        epochs: 8,
        machines: 4,
        iterations: 10,
        mu0: 0.01,
        mu_factor: 1.3,
        corpus: Corpus::Trained,
        latency_loop: LatencyLoop::ClosedQuiesced {
            traced_calls_per_s: 500.0,
        },
        train_share: 0.6,
        slo_ms: 10.0,
    },
    // Reads beside writes: `ApplyUpdates`/index upserts and W/Z work contend
    // with queries on the same actors. Open loop, because the claim this
    // workload tests is queueing behind updates.
    Workload {
        name: "serve_train",
        n: 4400,
        d: 64,
        bits: 16,
        epochs: 2,
        machines: 2,
        iterations: 6,
        mu0: 0.01,
        mu_factor: 1.3,
        corpus: Corpus::Trained,
        latency_loop: LatencyLoop::OpenUnderTraining {
            calls_per_s: 2000.0,
        },
        train_share: 0.9,
        slo_ms: 10.0,
    },
    // Reads only over uniform 64-bit codes: the per-code scan
    // (`parmac-retrieval` + `parmac-hash::popcount`) is nearly all of a
    // call; the capacity number. The fleet is first trained on a small
    // sample with the same 64-bit width.
    Workload {
        name: "serve_static",
        n: 512,
        d: 64,
        bits: 64,
        epochs: 1,
        machines: 2,
        iterations: 2,
        mu0: 0.01,
        mu_factor: 2.0,
        corpus: Corpus::Uniform { n: 200_000 },
        latency_loop: LatencyLoop::ClosedQuiesced {
            traced_calls_per_s: 50.0,
        },
        train_share: 0.3,
        slo_ms: 40.0,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
