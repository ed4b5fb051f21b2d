//! Stress tests for the fault-aware executor: hundreds of tasks on many
//! threads with injected panics, verifying exactly-once commit semantics,
//! task-order-preserving results, and clean abort on retry exhaustion —
//! and thousands of tiny waves and job-server rounds under a deadline,
//! verifying that no condvar wakeup is ever lost.

mod common;

use common::within;
use cstf_dataflow::executor::{Executor, RunPolicy, SpeculationPolicy};
use cstf_dataflow::prelude::*;
use cstf_dataflow::{CancelToken, RunStats, TaskError, WaveError};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One stage, no cancel token: the shape most tests here want.
fn run_one<F, R>(
    ex: &Executor,
    tasks: Vec<F>,
    policy: &RunPolicy,
) -> Result<(Vec<R>, RunStats), TaskError>
where
    F: Fn(usize) -> Result<R, String> + Send + Sync,
    R: Send,
{
    match ex.run_wave(vec![tasks], policy, None) {
        Ok(mut wave) => {
            let outcome = wave.pop().expect("one stage in, one outcome out");
            Ok((outcome.results, outcome.stats))
        }
        Err(WaveError::Task(e)) => Err(e),
        Err(WaveError::Cancelled) => panic!("no cancel token was supplied"),
    }
}

#[test]
fn thousands_of_tiny_waves_never_lose_the_finish_wakeup() {
    // A wave whose last commit lands between another worker's `done`
    // check and its park used to hang that worker. Only a two-worker wave
    // can lose that wakeup, and it is likeliest when a late-starting
    // worker is preempted inside the window, so several two-on-two loops
    // run beside the one-thread and one-task shapes to oversubscribe the
    // cores.
    const WAVES: usize = 20_000;
    const SHAPES: [(usize, usize); 8] = [
        (1, 1),
        (1, 2),
        (2, 1),
        (2, 2),
        (2, 2),
        (2, 2),
        (2, 2),
        (2, 2),
    ];
    within(
        Duration::from_secs(300),
        "20000 one- and two-task waves on one and two threads",
        || {
            std::thread::scope(|scope| {
                for (threads, tasks) in SHAPES {
                    scope.spawn(move || {
                        let ex = Executor::new(threads);
                        let policy = RunPolicy::default();
                        for wave in 0..WAVES {
                            let batch: Vec<_> = (0..tasks)
                                .map(|t| move |_attempt: usize| Ok::<_, String>(wave * 2 + t))
                                .collect();
                            let (out, _) = run_one(&ex, batch, &policy).unwrap();
                            assert_eq!(out, (0..tasks).map(|t| wave * 2 + t).collect::<Vec<_>>());
                        }
                    });
                }
            });
        },
    );
}

#[test]
fn a_wave_with_a_cancel_token_costs_no_poll_interval() {
    // The driver used to sleep one 2 ms poll interval before it looked
    // whether the wave had finished, so 200 cancellable waves took at
    // least 400 ms however fast their tasks were. Parked on the finish
    // signal they take a few milliseconds; a loaded host gets 10x slack.
    const WAVES: usize = 200;
    const LIMIT: Duration = Duration::from_millis(200);
    within(
        Duration::from_secs(300),
        "200 two-task waves under an un-fired cancel token",
        || {
            let ex = Executor::new(2);
            let token = CancelToken::new();
            let policy = RunPolicy::default();
            let t0 = Instant::now();
            for wave in 0..WAVES {
                let batch: Vec<_> = (0..2)
                    .map(|t| move |_attempt: usize| Ok::<_, String>(wave * 2 + t))
                    .collect();
                let out = ex.run_wave(vec![batch], &policy, Some(&token)).unwrap();
                assert_eq!(out[0].results, vec![wave * 2, wave * 2 + 1]);
            }
            let direct = t0.elapsed();
            assert!(direct < LIMIT, "{WAVES} direct waves took {direct:?}");

            // The same floor through the job server, whose every job
            // carries a token: one result wave per `count()`.
            let cluster = Cluster::new(ClusterConfig::local(2));
            let server = JobServer::new(&cluster, JobServerConfig::fair(2));
            let job = server.submit("t", |c: &Cluster| {
                let rdd = c.parallelize(vec![1u64, 2, 3, 4], 2);
                let t0 = Instant::now();
                let total: u64 = (0..WAVES).map(|_| rdd.count()).sum();
                (total, t0.elapsed())
            });
            let (total, served) = job.join().completed().expect("job completed");
            server.shutdown();
            assert_eq!(total, 4 * WAVES as u64);
            assert!(served < LIMIT, "{WAVES} job-server waves took {served:?}");
        },
    );
}

#[test]
fn a_token_fired_while_every_worker_is_busy_cancels_the_wave() {
    // Both workers are inside an attempt when the token fires, so only
    // the driver's monitor can observe it; the queued attempts must never
    // start and the wave must return `Cancelled`, handing nothing back
    // for the driver to publish.
    within(
        Duration::from_secs(300),
        "cancelling a wave whose workers are all busy",
        || {
            let ex = Executor::new(2);
            let token = CancelToken::new();
            let started = AtomicUsize::new(0);
            // The two running attempts and the canceller meet here, so the
            // token fires only once every worker is inside an attempt.
            let all_busy = Arc::new(Barrier::new(3));
            let canceller = {
                let (token, all_busy) = (token.clone(), all_busy.clone());
                std::thread::spawn(move || {
                    all_busy.wait();
                    token.cancel();
                })
            };
            let tasks: Vec<_> = (0..6)
                .map(|i| {
                    let (started, all_busy) = (&started, &all_busy);
                    move |_attempt: usize| {
                        started.fetch_add(1, Ordering::SeqCst);
                        all_busy.wait();
                        std::thread::sleep(Duration::from_millis(50));
                        Ok::<_, String>(i)
                    }
                })
                .collect();
            let outcome = ex.run_wave(vec![tasks], &RunPolicy::default(), Some(&token));
            canceller.join().expect("canceller thread");
            assert!(matches!(outcome, Err(WaveError::Cancelled)));
            assert_eq!(
                started.load(Ordering::SeqCst),
                2,
                "a queued attempt started after the cancel"
            );
        },
    );
}

#[test]
fn jobserver_submit_cancel_shutdown_rounds_always_return() {
    // The dispatcher parks on a condvar with no timeout, so each of
    // submit, completion, cancel and shutdown must wake it by itself:
    // a cancelled job on a *paused* server resolves only if `cancel`
    // signals, and a paused server stops only if `shutdown` does.
    const ROUNDS: u64 = 500;
    within(
        Duration::from_secs(300),
        "job-server submit/cancel/shutdown rounds",
        || {
            let cluster = Cluster::new(ClusterConfig::local(2));
            let count = |c: &Cluster| c.parallelize(vec![1u64, 2, 3, 4], 2).count();
            for round in 0..ROUNDS {
                let paused = round % 2 == 0;
                let config = JobServerConfig::fair(1 + (round % 2) as usize);
                let server = JobServer::new(
                    &cluster,
                    if paused {
                        config.start_paused()
                    } else {
                        config
                    },
                );
                let cancelled = server.submit("a", count);
                let kept = server.submit("b", count);
                cancelled.cancel();
                // Resolves while the server is still paused on even rounds.
                let outcome = cancelled.join();
                assert!(
                    paused && matches!(outcome, JobOutcome::Cancelled)
                        || !paused && !matches!(outcome, JobOutcome::Failed(_)),
                    "round {round}: cancelled job ended as {:?}",
                    outcome.kind()
                );
                if paused {
                    // Never resumed: shutdown alone must wake the dispatcher.
                    server.shutdown();
                    assert!(matches!(kept.join(), JobOutcome::Cancelled));
                } else {
                    assert_eq!(kept.join().completed(), Some(4));
                    server.shutdown();
                }
            }
        },
    );
}

#[test]
fn hundreds_of_tasks_with_injected_panics_commit_exactly_once() {
    const TASKS: usize = 400;
    let ex = Executor::new(16);
    let commits: Vec<AtomicUsize> = (0..TASKS).map(|_| AtomicUsize::new(0)).collect();
    let attempts_seen = AtomicU64::new(0);

    let tasks: Vec<_> = (0..TASKS)
        .map(|i| {
            let commits = &commits;
            let attempts_seen = &attempts_seen;
            move |attempt: usize| {
                attempts_seen.fetch_add(1, Ordering::Relaxed);
                // Deterministic carnage: every third task panics on its
                // first attempt, every 50th also on its second.
                if i % 3 == 0 && attempt == 0 {
                    panic!("task {i} dies on attempt 0");
                }
                if i % 50 == 0 && attempt == 1 {
                    panic!("task {i} dies on attempt 1");
                }
                commits[i].fetch_add(1, Ordering::Relaxed);
                Ok(i * 7)
            }
        })
        .collect();

    let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();

    // Results preserve task order despite retries and work stealing.
    assert_eq!(out, (0..TASKS).map(|i| i * 7).collect::<Vec<_>>());
    // Every task's success body ran exactly once (no speculation here, so
    // a successful attempt is unique).
    for (i, c) in commits.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} committed twice");
    }
    // Expected failures: attempt-0 panics for i % 3 == 0, and attempt-1
    // panics only for tasks that actually reached attempt 1 (i % 3 == 0)
    // and also satisfy i % 50 == 0.
    let attempt0_panics = (0..TASKS).filter(|i| i % 3 == 0).count() as u64;
    let attempt1_panics = (0..TASKS).filter(|i| i % 3 == 0 && i % 50 == 0).count() as u64;
    assert_eq!(stats.task_failures, attempt0_panics + attempt1_panics);
    assert_eq!(stats.task_retries, stats.task_failures);
    assert_eq!(
        attempts_seen.load(Ordering::Relaxed),
        TASKS as u64 + stats.task_failures
    );
}

#[test]
fn retry_exhaustion_aborts_cleanly_without_hanging() {
    // A task that fails on every attempt must surface a TaskError after
    // exactly max_attempts tries — and the scope must unwind without
    // deadlocking the remaining workers (this test finishing is the
    // assertion that no scope hangs).
    let ex = Executor::new(8);
    let doomed_attempts = AtomicUsize::new(0);
    let tasks: Vec<_> = (0..200)
        .map(|i| {
            let doomed_attempts = &doomed_attempts;
            move |_attempt: usize| {
                if i == 113 {
                    doomed_attempts.fetch_add(1, Ordering::Relaxed);
                    panic!("task 113 is doomed");
                }
                Ok(i)
            }
        })
        .collect();
    let policy = RunPolicy {
        max_attempts: 3,
        speculation: None,
    };
    let err = run_one(&ex, tasks, &policy).unwrap_err();
    assert_eq!(err.task, 113);
    assert_eq!(err.attempts, 3);
    assert!(err.message.contains("doomed"));
    assert_eq!(doomed_attempts.load(Ordering::Relaxed), 3);
}

#[test]
fn mixed_panics_and_error_returns_across_many_threads() {
    let ex = Executor::new(12);
    let tasks: Vec<_> = (0..300)
        .map(|i| {
            move |attempt: usize| match (i % 5, attempt) {
                (0, 0) => Err(format!("task {i} soft-fails first")),
                (1, 0) => panic!("task {i} hard-fails first"),
                _ => Ok(i as u64 * 2),
            }
        })
        .collect();
    let (out, stats) = run_one(&ex, tasks, &RunPolicy::default()).unwrap();
    assert_eq!(out, (0..300).map(|i| i as u64 * 2).collect::<Vec<_>>());
    assert_eq!(stats.task_failures, 120); // 60 soft + 60 hard
    assert_eq!(stats.task_retries, 120);
}

#[test]
fn speculative_duplicates_never_double_commit() {
    // Several stragglers sleep on their first attempt only; speculation
    // launches backups. Whoever wins, the observable result must be the
    // deterministic task value, committed exactly once per task.
    let ex = Executor::new(8);
    let commits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
    let tasks: Vec<_> = (0..64)
        .map(|i| {
            let commits = &commits;
            move |attempt: usize| {
                if i % 16 == 3 && attempt == 0 {
                    std::thread::sleep(Duration::from_millis(300));
                }
                commits[i].fetch_add(1, Ordering::Relaxed);
                Ok(i as u32 + 1000)
            }
        })
        .collect();
    let policy = RunPolicy {
        max_attempts: 4,
        speculation: Some(SpeculationPolicy {
            multiplier: 1.5,
            min_task_secs: 0.02,
        }),
    };
    let (out, stats) = run_one(&ex, tasks, &policy).unwrap();
    assert_eq!(out, (0..64).map(|i| i as u32 + 1000).collect::<Vec<_>>());
    assert!(stats.speculative_launched >= 1, "stragglers must speculate");
    assert!(stats.speculative_won <= stats.speculative_launched);
    // A task body may run twice (original + backup) but the *commit* is
    // first-writer-wins: results were asserted identical above, and no
    // task may run more than once plus its single backup.
    for (i, c) in commits.iter().enumerate() {
        assert!(c.load(Ordering::Relaxed) <= 2, "task {i} ran >2 times");
    }
}

#[test]
fn failure_after_speculative_win_does_not_abort() {
    // The straggler's original attempt panics *after* the backup already
    // committed; the late failure must be ignored, not counted against
    // the retry budget in a way that aborts the batch.
    let ex = Executor::new(4);
    let tasks: Vec<_> = (0..8)
        .map(|i| {
            move |attempt: usize| {
                if i == 2 && attempt == 0 {
                    std::thread::sleep(Duration::from_millis(250));
                    panic!("original attempt dies after losing the race");
                }
                Ok(i)
            }
        })
        .collect();
    let policy = RunPolicy {
        max_attempts: 1, // any counted failure would abort the batch
        speculation: Some(SpeculationPolicy {
            multiplier: 1.5,
            min_task_secs: 0.02,
        }),
    };
    let (out, stats) = run_one(&ex, tasks, &policy).unwrap();
    assert_eq!(out, (0..8).collect::<Vec<_>>());
    assert_eq!(stats.speculative_won, 1);
}
