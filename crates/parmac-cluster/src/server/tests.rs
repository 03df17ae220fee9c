use super::fleet::Fleet;
use super::*;
use crate::backend::tests::{z_step_matches_sim, z_updates_follow_topology_order};
use crate::ring::tests::{self as protocol, shards};
use crossbeam_channel::unbounded;
use std::thread;

/// Single-process reference over the database minus the points in
/// `lost`, with answers mapped back to global point indices — what a
/// degraded fleet that lost exactly those shards should answer.
fn knn_excluding(
    db: &BinaryCodes,
    queries: &BinaryCodes,
    k: usize,
    lost: std::ops::Range<usize>,
) -> Vec<Vec<usize>> {
    let keep: Vec<usize> = (0..db.len()).filter(|i| !lost.contains(i)).collect();
    let mut sub = BinaryCodes::zeros(0, db.n_bits());
    for &i in &keep {
        sub.push_code(&db.to_f64_row(i));
    }
    parmac_retrieval::hamming_knn(&sub, queries, k)
        .into_iter()
        .map(|row| row.into_iter().map(|r| keep[r]).collect())
        .collect()
}

#[test]
fn server_z_step_matches_sim() {
    z_step_matches_sim("server", &ServerBackend::new());
}

#[test]
fn server_z_updates_arrive_in_topology_order() {
    z_updates_follow_topology_order(&ServerBackend::new());
}

// The W-step cases live in the protocol table (`ring::tests`); these are
// its server cells by their old names.
#[test]
fn server_w_step_runs_the_full_protocol() {
    protocol::visits_every_machine_e_times("server", &ServerBackend::new());
}

#[test]
fn server_w_step_visits_machines_in_ring_order() {
    protocol::shuffled_topology("server", &ServerBackend::new());
}

#[test]
fn server_w_step_empty_submodels_and_single_machine() {
    protocol::empty_list("server", &ServerBackend::new());
    protocol::single_machine("server", &ServerBackend::new());
}

#[test]
fn pre_faulted_envelopes_are_routed_around_the_dead_machine() {
    protocol::removed_machine("server", &ServerBackend::new());
}

#[test]
fn published_codes_are_served_and_match_single_process_knn() {
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(3);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    assert_eq!(router.n_machines(), 3);
    for k in [1usize, 7, 60] {
        assert_eq!(
            router.knn(&queries, k).expect_full(),
            parmac_retrieval::hamming_knn(&db, &queries, k),
            "k={k}"
        );
    }
}

#[test]
fn replicated_publish_matches_single_process_knn() {
    // R = 2 places every shard on two machines; a healthy fleet must
    // answer exactly like the unreplicated one (read balancing only
    // changes which replica answers, never the answer).
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(29);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(6, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    let backend = ServerBackend::new().with_replication(2);
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let status = router.fleet_status();
    assert!(status.is_fully_replicated(), "{status:?}");
    assert_eq!(status.target_replicas, 2);
    let reference = parmac_retrieval::hamming_knn(&db, &queries, 7);
    // Several calls, so the read-balancing cursor rotates through every
    // replica choice.
    for _ in 0..4 {
        assert_eq!(router.knn(&queries, 7).expect_full(), reference);
    }
    assert_eq!(router.serving_stats().degraded, 0);
}

#[test]
fn kill_at_r2_fails_over_with_full_coverage() {
    // The tentpole guarantee: at R = 2, killing *any single machine*
    // leaves every shard answerable — answers stay bitwise identical to
    // the single-process reference, coverage stays full.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(31);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    for victim in 0..3 {
        let backend = ServerBackend::new().with_replication(2);
        backend.publish_codes(&cluster, &db);
        backend.kill_machine(victim);
        let router = backend.query_router();
        for k in [1usize, 7, 60] {
            let response = router.knn(&queries, k);
            assert!(response.coverage.is_full(), "victim={victim} k={k}");
            assert_eq!(
                response.answers,
                parmac_retrieval::hamming_knn(&db, &queries, k),
                "victim={victim} k={k}"
            );
        }
        let status = router.fleet_status();
        assert_eq!(status.dead_machines, 1, "victim={victim}");
    }
}

#[test]
fn killed_machine_no_longer_shrinks_answers_silently() {
    // Regression for the pre-replication bug: a killed machine dropped
    // its shard from every answer with no signal to the caller. At R = 1
    // the shard *is* lost, but the response now says so: coverage is
    // degraded and the answers equal the reference over the surviving
    // shards — never a silently shorter candidate set.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(37);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    let backend = ServerBackend::new(); // R = 1
    backend.publish_codes(&cluster, &db);
    backend.kill_machine(1); // shard 1 = points 20..40, now lost
    let router = backend.query_router();
    let response = router.knn(&queries, 9);
    assert!(response.is_degraded(), "lost shard must be flagged");
    assert_eq!(
        response.coverage,
        Coverage {
            shards_answered: 2,
            shards_total: 3
        }
    );
    assert_eq!(response.answers, knn_excluding(&db, &queries, 9, 20..40));
    let stats = router.serving_stats();
    assert!(stats.degraded >= 1, "{stats:?}");
    // A republish is authoritative: it restores the machine's actor and
    // the lost shard, and coverage returns to full.
    backend.publish_codes(&cluster, &db);
    assert_eq!(
        router.knn(&queries, 9).expect_full(),
        parmac_retrieval::hamming_knn(&db, &queries, 9)
    );
}

#[test]
#[should_panic(expected = "degraded")]
fn expect_full_panics_on_degraded_coverage() {
    KnnResponse {
        answers: Vec::new(),
        coverage: Coverage {
            shards_answered: 1,
            shards_total: 2,
        },
    }
    .expect_full();
}

#[test]
fn wedged_machine_fails_over_within_deadline_and_recovers() {
    // A wedged (alive but unresponsive) machine must cost at most the
    // replica timeout per wave, never a hang: queries fail over to the
    // other replica, the health tracker marks the machine dead after
    // consecutive failures, and a probe after it recovers revives it.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(41);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(4, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    let backend = ServerBackend::new().with_replication_config(ReplicationConfig {
        replicas: 2,
        replica_timeout: Duration::from_millis(100),
        query_deadline: Duration::from_secs(5),
        failure_threshold: 2,
    });
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let reference = parmac_retrieval::hamming_knn(&db, &queries, 7);
    assert!(backend.wedge_machine(0, Duration::from_millis(600)));
    let start = Instant::now();
    // Every fan-out during the wedge must still produce the exact
    // full-coverage answer via the surviving replicas, within the
    // deadline. Repeated queries rack up consecutive failures on the
    // wedged machine until it is marked dead.
    for _ in 0..4 {
        assert_eq!(router.knn(&queries, 7).expect_full(), reference);
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "queries must not hang on a wedged actor"
    );
    let stats = router.serving_stats();
    assert!(stats.failovers >= 1, "{stats:?}");
    assert_eq!(stats.degraded, 0, "R=2 must hide a single wedge");
    // Let the wedge pass, then probe: the machine answers again and is
    // marked live; the fleet converges back to full replication.
    thread::sleep(Duration::from_millis(700));
    let mut restored = false;
    for _ in 0..50 {
        if backend.restore_machine(0) {
            restored = true;
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    assert!(restored, "recovered machine must pass the probe");
    let status = backend.fleet_status();
    assert_eq!(status.dead_machines, 0, "{status:?}");
    assert!(status.is_fully_replicated(), "{status:?}");
    assert_eq!(router.knn(&queries, 7).expect_full(), reference);
}

#[test]
fn rebalance_reconverges_after_kill() {
    // Self-healing: after a kill, the rebalancer re-replicates the dead
    // machine's shards from the surviving replicas. Killing the *other*
    // original host afterwards must then still leave full coverage —
    // proof the new replica really exists and serves.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(43);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(80, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(4, 80), CostModel::distributed());
    let backend = ServerBackend::new().with_replication(2);
    backend.publish_codes(&cluster, &db);
    backend.kill_machine(0);
    backend.rebalance();
    let status = backend.fleet_status();
    assert!(status.is_fully_replicated(), "{status:?}");
    assert_eq!(status.live_machines, 3);
    // Shard 0's original hosts were machines 0 and 1. With 0 dead and
    // the fleet rebalanced, killing 1 as well must not lose the shard.
    backend.kill_machine(1);
    let router = backend.query_router();
    let response = router.knn(&queries, 9);
    assert!(response.coverage.is_full(), "{:?}", response.coverage);
    assert_eq!(
        response.answers,
        parmac_retrieval::hamming_knn(&db, &queries, 9)
    );
}

#[test]
fn rebalanced_replicas_stay_fresh_through_z_updates() {
    // A replica created by the rebalancer must keep receiving training
    // publishes like an original: updates published after the rebalance
    // are visible even when every original host of the shard is gone.
    let cluster = SimCluster::new(shards(3, 12), CostModel::distributed());
    let backend = ServerBackend::new().with_replication(2);
    backend.publish_codes(&cluster, &BinaryCodes::zeros(12, 2));
    backend.kill_machine(0);
    backend.rebalance();
    assert!(backend.fleet_status().is_fully_replicated());
    // Point 2 lives in shard 0 (originally hosted on machines 0 and 1).
    backend.run_z_step(&cluster, 1, |_, shard| {
        shard
            .iter()
            .filter(|&&n| n == 2)
            .map(|&n| ZUpdate {
                point: n,
                code: vec![1.0, 1.0],
            })
            .collect()
    });
    backend.kill_machine(1);
    let router = backend.query_router();
    let q = BinaryCodes::from_bools(&[vec![true, true]]);
    let response = router.knn(&q, 1);
    assert!(response.coverage.is_full(), "{:?}", response.coverage);
    assert_eq!(response.answers, vec![vec![2]]);
}

#[test]
fn restore_after_kill_requires_republish_at_r1() {
    // At R = 1 a killed machine's shard has no surviving replica: the
    // rebalancer cannot recreate data that no longer exists anywhere.
    // Restoring the machine brings back an *empty* actor — coverage
    // stays (correctly) degraded until the trainer republishes.
    let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
    let backend = ServerBackend::new();
    let codes = BinaryCodes::zeros(8, 2);
    backend.publish_codes(&cluster, &codes);
    backend.kill_machine(0);
    assert!(backend.restore_machine(0), "fresh actor must answer a ping");
    let router = backend.query_router();
    let q = BinaryCodes::from_bools(&[vec![false, false]]);
    let response = router.knn(&q, 3);
    assert!(response.is_degraded(), "lost shard cannot come back alone");
    assert_eq!(
        response.coverage,
        Coverage {
            shards_answered: 1,
            shards_total: 2
        }
    );
    backend.publish_codes(&cluster, &codes);
    let response = router.knn(&q, 3);
    assert!(response.coverage.is_full(), "{:?}", response.coverage);
    assert_eq!(response.answers, vec![vec![0, 1, 2]]);
}

#[test]
fn wedged_actor_drop_is_bounded() {
    // Satellite regression: dropping the backend used to join every
    // actor unconditionally, so a wedged actor blocked the drop for as
    // long as it stayed wedged. The drop path must abandon it after the
    // shutdown grace instead.
    let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 2));
    assert!(backend.wedge_machine(0, Duration::from_secs(10)));
    let start = Instant::now();
    drop(backend);
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drop must not wait out a 10s wedge (took {:?})",
        start.elapsed()
    );
}

#[test]
fn fleet_status_reports_replication_health() {
    let cluster = SimCluster::new(shards(3, 12), CostModel::distributed());
    let backend = ServerBackend::new().with_replication(2);
    backend.publish_codes(&cluster, &BinaryCodes::zeros(12, 2));
    let status = backend.fleet_status();
    assert_eq!(status.target_replicas, 2);
    assert_eq!(status.live_machines, 3);
    assert_eq!(status.dead_machines, 0);
    assert_eq!(status.shards, 3);
    assert!(status.is_fully_replicated());
    backend.kill_machine(2);
    backend.rebalance();
    let status = backend.fleet_status();
    assert_eq!(status.live_machines, 2);
    assert_eq!(status.dead_machines, 1);
    assert!(status.is_fully_replicated(), "{status:?}");
}

#[test]
fn z_step_refreshes_the_served_codes() {
    let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
    let backend = ServerBackend::new();
    let initial = BinaryCodes::zeros(8, 2);
    backend.publish_codes(&cluster, &initial);
    let router = backend.query_router();
    // Flip point 5's code to (1, 1); a (1, 1) query must now rank it first.
    backend.run_z_step(&cluster, 1, |_, shard| {
        shard
            .iter()
            .filter(|&&n| n == 5)
            .map(|&n| ZUpdate {
                point: n,
                code: vec![1.0, 1.0],
            })
            .collect()
    });
    let q = BinaryCodes::from_bools(&[vec![true, true]]);
    assert_eq!(router.knn(&q, 1).expect_full(), vec![vec![5]]);
}

#[test]
fn mismatched_query_width_yields_empty_answers_not_a_dead_actor() {
    // Regression: a width-mismatched query used to panic inside the
    // detached serving actor, leaving every later call blocked forever.
    // The shard is resident, so it counts as answered (empty), with full
    // coverage — retrying another replica could not do better.
    let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 4));
    let router = backend.query_router();
    let wrong_width = BinaryCodes::from_bools(&[vec![true, false]]);
    assert_eq!(
        router.knn(&wrong_width, 3).expect_full(),
        vec![Vec::<usize>::new()]
    );
    // The fleet is still alive and serves well-formed queries.
    let ok = BinaryCodes::from_bools(&[vec![false, false, false, false]]);
    assert_eq!(router.knn(&ok, 1).expect_full(), vec![vec![0]]);
}

#[test]
fn streamed_point_codes_are_served_incrementally() {
    // publish_point_codes must reach the (possibly brand-new) machine's
    // actor without a full fleet reload.
    let cluster = SimCluster::new(shards(2, 8), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &BinaryCodes::zeros(8, 2));
    let mut all = BinaryCodes::zeros(8, 2);
    all.push_code(&[1.0, 1.0]); // point 8 joins machine 2 (a new actor)
    backend.publish_point_codes(2, &[8], &all);
    let router = backend.query_router();
    assert_eq!(router.n_machines(), 3);
    let q = BinaryCodes::from_bools(&[vec![true, true]]);
    assert_eq!(router.knn(&q, 1).expect_full(), vec![vec![8]]);
}

#[test]
fn router_on_an_empty_fleet_returns_empty_lists() {
    let backend = ServerBackend::new();
    let router = backend.query_router();
    let q = BinaryCodes::from_bools(&[vec![true, false]]);
    let response = router.knn(&q, 3);
    assert!(response.coverage.is_full(), "0/0 is vacuously full");
    assert_eq!(response.answers, vec![Vec::<usize>::new()]);
    assert_eq!(router.n_machines(), 0);
}

#[test]
fn knn_shared_does_not_copy_the_query_batch() {
    // The satellite regression: `knn` used to deep-clone the batch on
    // every call. The Arc-accepting entry must share the caller's
    // allocation across the fan-out and release it afterwards.
    let cluster = SimCluster::new(shards(3, 30), CostModel::distributed());
    let backend = ServerBackend::new();
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(17);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(30, 8, 0.0, 1.0, &mut rng));
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
        4, 8, 0.0, 1.0, &mut rng,
    )));
    let shared = router.knn_shared(&queries, 5);
    assert_eq!(shared, router.knn(&queries, 5));
    assert_eq!(
        shared.expect_full(),
        parmac_retrieval::hamming_knn(&db, &queries, 5)
    );
    // Every fan-out clone has been released: the caller's Arc is unique
    // again, so no machine kept (or copied into) a private batch.
    assert_eq!(Arc::strong_count(&queries), 1);
}

#[test]
fn answers_do_not_depend_on_how_queries_are_batched() {
    // A machine answers a batch on its one thread, query by query; how the
    // caller cuts the same 24 queries into calls must never show in the
    // answers, exact or budgeted.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let n = 3000;
    let mut rng = SmallRng::seed_from_u64(18);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(n, 16, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(24, 16, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, n), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    // The same queries as 1 × 24, 3 × 8 and 24 × 1 calls, answers
    // concatenated in query order.
    let batched = |per_call: usize, probes: Option<usize>| -> Vec<Vec<usize>> {
        let mut answers = Vec::new();
        for first in (0..queries.len()).step_by(per_call) {
            let mut call = BinaryCodes::zeros(0, 16);
            for q in first..first + per_call {
                call.push_code_from(&queries, q);
            }
            let call = Arc::new(call);
            let response = match probes {
                None => router.knn_shared(&call, 40),
                Some(probes) => router.knn_budgeted(&call, 40, probes),
            };
            answers.extend(response.expect_full());
        }
        answers
    };
    let reference = parmac_retrieval::hamming_knn(&db, &queries, 40);
    let budgeted = batched(24, Some(1));
    for per_call in [24usize, 8, 1] {
        assert_eq!(batched(per_call, None), reference, "exact, {per_call}/call");
        assert_eq!(
            batched(per_call, Some(1)),
            budgeted,
            "probes=1, {per_call}/call"
        );
    }
}

#[test]
fn budgeted_queries_saturate_to_the_exact_answer() {
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(23);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(240, 16, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 240), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
        5, 16, 0.0, 1.0, &mut rng,
    )));
    let exact = parmac_retrieval::hamming_knn(&db, &queries, 9);
    // A budget covering every bucket (2^16 is a safe upper bound here)
    // must equal exact mode, both direct and through admission.
    assert_eq!(
        router.knn_budgeted(&queries, 9, 1 << 16).expect_full(),
        exact
    );
    assert_eq!(
        router
            .knn_admitted_budgeted(Arc::clone(&queries), 9, 1 << 16)
            .expect("admitted")
            .expect_full(),
        exact
    );
    // A small budget still returns well-formed sorted hit lists with at
    // most k entries, each a true database point.
    for answers in router.knn_budgeted(&queries, 9, 1).answers {
        assert!(answers.len() <= 9);
        for &id in &answers {
            assert!(id < db.len());
        }
    }
}

#[test]
fn admitted_queries_match_direct_fanout_and_are_accounted() {
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(19);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
        5, 12, 0.0, 1.0, &mut rng,
    )));
    for k in [1usize, 7, 60] {
        assert_eq!(
            router
                .knn_admitted(Arc::clone(&queries), k)
                .expect("admitted")
                .expect_full(),
            parmac_retrieval::hamming_knn(&db, &queries, k),
            "k={k}"
        );
    }
    let stats = router.serving_stats();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.answered, 3);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.submitted, stats.answered + stats.shed);
}

#[test]
fn coalesced_submissions_with_different_k_get_their_own_topk() {
    // Force coalescing deterministically: saturate the admission loop
    // with a slow first batch is racy, so instead drive serve_coalesced
    // directly through the public API with many concurrent clients and
    // verify every answer against the single-process reference.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(20);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(90, 10, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 90), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let batches: Vec<(Arc<BinaryCodes>, usize)> = (0..12)
        .map(|i| {
            let q = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
                1 + i % 3,
                10,
                0.0,
                1.0,
                &mut rng,
            )));
            (q, 1 + 7 * (i % 4))
        })
        .collect();
    thread::scope(|scope| {
        for (q, k) in &batches {
            let router = router.clone();
            let db = &db;
            scope.spawn(move || {
                let got = router
                    .knn_admitted(Arc::clone(q), *k)
                    .expect("default queue is large enough");
                assert_eq!(
                    got.expect_full(),
                    parmac_retrieval::hamming_knn(db, q, *k),
                    "k={k}"
                );
            });
        }
    });
    let stats = router.serving_stats();
    assert_eq!(stats.submitted, 12);
    assert_eq!(stats.answered, 12);
    assert_eq!(stats.shed, 0);
}

#[test]
fn saturated_admission_queue_sheds_explicitly_and_accounts_every_query() {
    // Tiny queue + many concurrent clients: some submissions must be
    // shed with an explicit error; every answered one must be exact; and
    // the counters must balance (answered + shed == submitted).
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(21);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(80, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(4, 80), CostModel::distributed());
    let backend = ServerBackend::new().with_admission_config(AdmissionConfig {
        queue_capacity: 1,
        max_batch: 4,
    });
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let queries = Arc::new(BinaryCodes::from_matrix(&Mat::random_uniform(
        2, 12, 0.0, 1.0, &mut rng,
    )));
    let reference = parmac_retrieval::hamming_knn(&db, &queries, 9);
    let clients = 8usize;
    let per_client = 25usize;
    let (answered, shed) = thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let router = router.clone();
                let queries = Arc::clone(&queries);
                let reference = &reference;
                scope.spawn(move || {
                    let (mut ok, mut shed) = (0u64, 0u64);
                    for _ in 0..per_client {
                        match router.knn_admitted(Arc::clone(&queries), 9) {
                            Ok(response) => {
                                assert!(response.coverage.is_full());
                                assert_eq!(&response.answers, reference, "answered must be exact");
                                ok += 1;
                            }
                            Err(AdmissionError::Shed { queue_capacity }) => {
                                assert_eq!(queue_capacity, 1);
                                shed += 1;
                            }
                            Err(AdmissionError::Closed) => {
                                panic!("admission loop died mid-test")
                            }
                        }
                    }
                    (ok, shed)
                })
            })
            .collect();
        handles.into_iter().fold((0u64, 0u64), |acc, h| {
            let (ok, shed) = h.join().expect("client thread");
            (acc.0 + ok, acc.1 + shed)
        })
    });
    let stats = router.serving_stats();
    assert_eq!(stats.submitted, (clients * per_client) as u64);
    assert_eq!(stats.answered, answered);
    assert_eq!(stats.shed, shed);
    assert_eq!(
        stats.submitted,
        stats.answered + stats.shed,
        "every query accounted for: {stats:?}"
    );
    assert!(stats.batches >= 1);
}

#[test]
fn admitted_path_on_an_empty_fleet_returns_empty_lists() {
    let backend = ServerBackend::new();
    let router = backend.query_router();
    let q = Arc::new(BinaryCodes::from_bools(&[vec![true, false]]));
    let response = router.knn_admitted(q, 3).expect("admitted");
    assert!(response.coverage.is_full(), "0/0 is vacuously full");
    assert_eq!(response.answers, vec![Vec::<usize>::new()]);
}

#[test]
fn server_exposes_name_and_cost() {
    let backend = ServerBackend::new().with_cost_model(CostModel::shared_memory());
    assert_eq!(backend.name(), "server");
    assert_eq!(backend.cost_model(), CostModel::shared_memory());
    assert_eq!(
        ServerBackend::default().cost_model(),
        CostModel::distributed()
    );
}

/// Fetches `(points, codes, seq)` for `shard` from `machine`'s actor.
fn fetch_shard(
    fleet: &Arc<Fleet>,
    machine: usize,
    shard: usize,
) -> Option<(Vec<usize>, BinaryCodes, u64)> {
    let (tx, rx) = unbounded();
    fleet
        .send_if_resident(machine, MachineMsg::FetchShard { shard, reply: tx })
        .ok()?;
    rx.recv_timeout(Duration::from_secs(5)).ok().flatten()
}

#[test]
fn stale_install_replica_cannot_roll_back_a_newer_publish() {
    // Regression for the lock that used to serialise publishes against
    // the rebalancer: ordering replaced it. A replica snapshot fetched
    // before a publish (low seq) must be rejected by an actor that
    // already holds the publish's authoritative data (higher seq).
    let fleet = Arc::new(Fleet::default());
    let mut v1 = BinaryCodes::zeros(2, 8);
    v1.set_code(0, &[1.0; 8]);
    let mut v2 = BinaryCodes::zeros(2, 8);
    v2.set_code(1, &[1.0; 8]);

    fleet.send_spawning(
        0,
        MachineMsg::LoadShard {
            shard: 0,
            points: vec![4, 5],
            codes: v2.clone(),
            seq: 2,
        },
    );
    fleet.send_spawning(
        0,
        MachineMsg::InstallReplica {
            shard: 0,
            points: vec![4, 5],
            codes: v1.clone(),
            seq: 1,
        },
    );
    let (_, codes, seq) = fetch_shard(&fleet, 0, 0).expect("shard hosted");
    assert_eq!(seq, 2, "stale install must not displace the publish");
    assert_eq!(codes, v2);

    // An older LoadShard is equally stale.
    fleet.send_spawning(
        0,
        MachineMsg::LoadShard {
            shard: 0,
            points: vec![4, 5],
            codes: v1.clone(),
            seq: 1,
        },
    );
    let (_, codes, seq) = fetch_shard(&fleet, 0, 0).expect("shard hosted");
    assert_eq!((seq, codes), (2, v2.clone()));

    // An equal-seq LoadShard replaces — a retried publish is idempotent, the
    // one rule of the shared store (`ReplicaStore::load`).
    fleet.send_spawning(
        0,
        MachineMsg::LoadShard {
            shard: 0,
            points: vec![4, 5],
            codes: v1.clone(),
            seq: 2,
        },
    );
    let (_, codes, seq) = fetch_shard(&fleet, 0, 0).expect("shard hosted");
    assert_eq!((seq, codes), (2, v1.clone()));

    // A publish landing while an install is in flight ends the install: the
    // stash goes with it, the late snapshot is refused, and updates from
    // then on apply directly.
    let to_zeros = |point| ZUpdate {
        point,
        code: vec![0.0; 8],
    };
    fleet.send_spawning(2, MachineMsg::ExpectReplica { shard: 0 });
    fleet.send_spawning(
        2,
        MachineMsg::ApplyUpdates {
            shard: 0,
            updates: vec![to_zeros(5)],
        },
    );
    fleet.send_spawning(
        2,
        MachineMsg::LoadShard {
            shard: 0,
            points: vec![4, 5],
            codes: v2.clone(),
            seq: 2,
        },
    );
    fleet.send_spawning(
        2,
        MachineMsg::InstallReplica {
            shard: 0,
            points: vec![4, 5],
            codes: v1.clone(),
            seq: 1,
        },
    );
    let (_, codes, seq) = fetch_shard(&fleet, 2, 0).expect("shard hosted");
    assert_eq!(
        (seq, codes),
        (2, v2),
        "stash must not replay over the publish"
    );
    fleet.send_spawning(
        2,
        MachineMsg::ApplyUpdates {
            shard: 0,
            updates: vec![to_zeros(5)],
        },
    );
    let (points, codes, _) = fetch_shard(&fleet, 2, 0).expect("shard hosted");
    assert_eq!((points, codes), (vec![4, 5], BinaryCodes::zeros(2, 8)));

    // On a machine with nothing newer the same install is welcome.
    fleet.send_spawning(
        1,
        MachineMsg::InstallReplica {
            shard: 0,
            points: vec![4, 5],
            codes: v1.clone(),
            seq: 1,
        },
    );
    let (_, codes, seq) = fetch_shard(&fleet, 1, 0).expect("shard hosted");
    assert_eq!((seq, codes), (1, v1));
}

#[test]
fn publish_racing_rebalance_converges_to_the_latest_publish() {
    // The old design held `rebalance_lock` across every publish and
    // every rebalance pass. Now they genuinely overlap; seq ordering
    // must still make the newest publish win on every assigned host.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(41);
    let v1 = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let v2 = BinaryCodes::from_matrix(&Mat::random_uniform(60, 12, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(5, 12, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 60), CostModel::distributed());

    let backend = ServerBackend::new().with_replication(2);
    backend.publish_codes(&cluster, &v1);
    backend.kill_machine(1); // give the racing passes real work
    thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..3 {
                backend.rebalance();
            }
        });
        backend.publish_codes(&cluster, &v2);
    });
    backend.rebalance();

    let status = backend.fleet_status();
    assert!(status.is_fully_replicated(), "{status:?}");
    // Every assigned host must serve the v2 publish — nothing rolled
    // back by a racing install, nothing left at the v1 seq.
    let assignments = backend.router.fleet.assignments.lock().clone();
    assert_eq!(assignments.len(), 3);
    for (&shard, hosts) in &assignments {
        let expected: Vec<usize> = cluster.shard(shard).to_vec();
        for &host in hosts {
            let (points, codes, seq) =
                fetch_shard(&backend.router.fleet, host, shard).expect("assigned host hosts shard");
            assert_eq!(seq, 2, "shard {shard} on machine {host}");
            assert_eq!(points, expected, "shard {shard} on machine {host}");
            for (row, &point) in expected.iter().enumerate() {
                assert_eq!(
                    codes.to_f64_row(row),
                    v2.to_f64_row(point),
                    "shard {shard} host {host} point {point}"
                );
            }
        }
    }
    assert_eq!(
        backend.query_router().knn(&queries, 7).expect_full(),
        parmac_retrieval::hamming_knn(&v2, &queries, 7)
    );
}

#[test]
fn admission_drop_joins_its_loop_without_holding_the_handle_lock() {
    // Regression for the `if let Some(h) = self.handle.lock().take()`
    // scrutinee: under Rust 2021 scoping that guard lived across the
    // bounded join. The drop must complete promptly even when another
    // thread pokes the handle lock concurrently.
    use parmac_linalg::Mat;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(43);
    let db = BinaryCodes::from_matrix(&Mat::random_uniform(30, 8, 0.0, 1.0, &mut rng));
    let queries = BinaryCodes::from_matrix(&Mat::random_uniform(2, 8, 0.0, 1.0, &mut rng));
    let cluster = SimCluster::new(shards(3, 30), CostModel::distributed());
    let backend = ServerBackend::new();
    backend.publish_codes(&cluster, &db);
    let router = backend.query_router();
    let _ = router.knn_admitted(Arc::new(queries), 3).expect("admitted");
    let started = Instant::now();
    drop(backend);
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "drop wedged: {:?}",
        started.elapsed()
    );
}
