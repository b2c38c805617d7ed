//! Chaos sweep for the fault-tolerant runtime (the PR 10 acceptance
//! property): every algorithm × every fault kind × an injection at
//! *every* owner exchange of the run. Each faulted run must end in one
//! of exactly three ways —
//!
//! * retries recover it to the bit-identical answer (lost replies,
//!   flakes, delays on a single replica),
//! * replica failover recovers it to the bit-identical answer (any
//!   fault kind when the runtime is replicated),
//! * it surfaces a typed `TopKError::Source` (a crash with no spare
//!   replica), after which a certified `DegradedAnswer` is still
//!   available over the surviving lists.
//!
//! Never a panic, never a hang, never a silently wrong answer.

use std::time::Duration;

use bpa_topk::distributed::{ClusterRuntime, FaultKind, FaultPlan, RetryPolicy, SessionOptions};
use bpa_topk::prelude::*;
use topk_core::examples_paper::figure1_database;
use topk_lists::SourceErrorKind;

/// Answers with exact score bits: the sweep's notion of bit-identical.
fn fingerprint(result: &TopKResult) -> Vec<(ItemId, u64)> {
    result
        .items()
        .iter()
        .map(|r| (r.item, r.score.value().to_bits()))
        .collect()
}

fn true_score(db: &Database, item: ItemId) -> f64 {
    db.local_scores(item)
        .unwrap()
        .iter()
        .map(|s| s.value())
        .sum()
}

/// The full sweep. Workers stay alive throughout (faults are injected at
/// the link seam), so one single-replica runtime and one 2-replica
/// runtime serve every combination through isolated sessions.
#[test]
fn every_fault_at_every_exchange_recovers_or_fails_typed() {
    let db = figure1_database();
    let query = TopKQuery::top(3);
    let single = ClusterRuntime::spawn(&db);
    let replicated = ClusterRuntime::spawn_replicated(&db, 2);

    for algorithm in AlgorithmKind::ALL {
        // Fault-free baseline; the disarmed plan counts the run's
        // physical exchanges, giving the sweep its injection ordinals.
        let probe = FaultPlan::new();
        let mut baseline = single.connect_with(SessionOptions::with_faults(probe.clone()));
        let expected = algorithm.create().run_on(&mut baseline, &query).unwrap();
        let expected_bits = fingerprint(&expected);
        let ops = probe.ops();
        assert!(ops > 0, "{algorithm:?}: the baseline exchanged nothing");
        assert_eq!(baseline.fault_stats().injected, 0);

        for kind in [
            FaultKind::Crash,
            FaultKind::DropReply,
            FaultKind::Delay(1_000),
            FaultKind::Flake(1),
        ] {
            for at in 1..=ops {
                // Single replica: a crash is unrecoverable (typed error,
                // then a certified degraded answer); everything else
                // retries back to the bit-identical answer.
                let plan = FaultPlan::new();
                plan.arm(at, kind);
                let mut session = single.connect_with(SessionOptions::with_faults(plan));
                match algorithm.create().run_on(&mut session, &query) {
                    Ok(result) => {
                        assert!(
                            !matches!(kind, FaultKind::Crash),
                            "{algorithm:?} {kind:?}@{at}: a crash without a replica cannot succeed"
                        );
                        assert_eq!(
                            fingerprint(&result),
                            expected_bits,
                            "{algorithm:?} {kind:?}@{at}: retries changed the answer"
                        );
                        let stats = session.fault_stats();
                        assert!(stats.injected >= 1, "{algorithm:?} {kind:?}@{at}");
                        assert!(stats.retries >= 1, "{algorithm:?} {kind:?}@{at}");
                    }
                    Err(TopKError::Source(source)) => {
                        assert!(
                            matches!(kind, FaultKind::Crash),
                            "{algorithm:?} {kind:?}@{at}: only a crash may be unrecoverable, \
                             got {source:?}"
                        );
                        assert_eq!(source.kind, SourceErrorKind::Unreachable);
                        let dead = source.list.expect("the fault names its owner");
                        // The runtime still serves a certified degraded
                        // answer around the dead list.
                        let mut surviving = single.connect_surviving(&[dead]);
                        let answer = run_on_degraded(
                            algorithm.create().as_ref(),
                            &mut surviving,
                            &query,
                            &[single.outage(dead)],
                        )
                        .unwrap();
                        assert_eq!(answer.items.len(), 3);
                        for (item, interval) in answer.items.iter().zip(&answer.intervals) {
                            let truth = Score::from_f64(true_score(&db, item.item));
                            assert!(
                                interval.contains(truth),
                                "{algorithm:?} crash@{at} dead={dead}: true score of \
                                 {:?} outside its certified bracket",
                                item.item
                            );
                        }
                    }
                    Err(other) => {
                        panic!("{algorithm:?} {kind:?}@{at}: untyped failure {other:?}")
                    }
                }

                // With a replica, every fault kind — the crash included —
                // recovers to the bit-identical answer.
                let plan = FaultPlan::new();
                plan.arm(at, kind);
                let mut session = replicated.connect_with(SessionOptions::with_faults(plan));
                let result = algorithm
                    .create()
                    .run_on(&mut session, &query)
                    .unwrap_or_else(|err| {
                        panic!("{algorithm:?} {kind:?}@{at} replicated: {err:?}")
                    });
                assert_eq!(
                    fingerprint(&result),
                    expected_bits,
                    "{algorithm:?} {kind:?}@{at}: failover changed the answer"
                );
                assert!(session.fault_stats().injected >= 1);
                if matches!(kind, FaultKind::Crash) {
                    assert_eq!(
                        session.fault_stats().failovers,
                        1,
                        "{algorithm:?} crash@{at}: exactly one failover"
                    );
                }
            }
        }
    }
}

/// Satellite regression: an owner killed for real (worker thread gone,
/// channel closed) surfaces as a typed error — the session never blocks
/// on the dead channel. The test completing at all is the assertion
/// against the former infinite `recv()`.
#[test]
fn a_killed_owner_never_hangs_a_session() {
    let db = figure1_database();
    let runtime = ClusterRuntime::spawn(&db);
    let mut session = runtime.connect_with(SessionOptions {
        retry: RetryPolicy {
            reply_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        },
        ..SessionOptions::default()
    });
    runtime.kill_owner(2, 0);
    let err = Bpa2.run_on(&mut session, &query_top3()).unwrap_err();
    match err {
        TopKError::Source(source) => {
            assert_eq!(source.kind, SourceErrorKind::Unreachable);
            assert_eq!(source.list, Some(2));
        }
        other => panic!("expected a typed source error, got {other:?}"),
    }
    // The runtime itself survives: fresh sessions over the remaining
    // owners still serve certified degraded answers.
    let mut surviving = runtime.connect_surviving(&[2]);
    let answer =
        run_on_degraded(&Bpa2, &mut surviving, &query_top3(), &[runtime.outage(2)]).unwrap();
    assert_eq!(answer.items.len(), 3);
}

fn query_top3() -> TopKQuery {
    TopKQuery::top(3)
}

/// Killing one replica out of two mid-session keeps the answer exact:
/// the resilient link fails over and replays its journal.
#[test]
fn a_killed_replica_mid_session_fails_over_exactly() {
    let db = figure1_database();
    let query = TopKQuery::top(3);
    let runtime = ClusterRuntime::spawn_replicated(&db, 2);
    let expected = {
        let mut clean = runtime.connect();
        fingerprint(&Bpa2.run_on(&mut clean, &query).unwrap())
    };

    let mut session = runtime.connect_with(SessionOptions {
        retry: RetryPolicy {
            reply_timeout: Duration::from_millis(200),
            ..RetryPolicy::default()
        },
        ..SessionOptions::default()
    });
    // Put real per-session state on the primary before killing it, so
    // the failover has a journal to replay.
    session.source(0).direct_access_next().unwrap();
    session
        .source(0)
        .sorted_access(Position::FIRST, true)
        .unwrap();
    runtime.kill_owner(0, 0);
    session.reset();
    let result = Bpa2.run_on(&mut session, &query).unwrap();
    assert_eq!(fingerprint(&result), expected);
    assert!(session.fault_stats().failovers >= 1);
}
