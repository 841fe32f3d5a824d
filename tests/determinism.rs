//! Determinism and reproducibility: identical seeds must reproduce
//! identical traces, databases, and experiment outcomes — the property
//! that makes every figure in EXPERIMENTS.md regenerable bit-for-bit.

use specdb::core::UniformProfile;
use specdb::exec::MatchMode;
use specdb::sim::replay::{replay_trace, ProfileKind, ReplayConfig};
use specdb::sim::{build_base_db, DatasetSpec};
use specdb::trace::gen::oracle_profile;
use specdb::trace::{TraceStats, UserModel, UserModelConfig};

#[test]
fn trace_generation_is_deterministic() {
    let a = UserModel::default().generate_cohort(3, 99);
    let b = UserModel::default().generate_cohort(3, 99);
    assert_eq!(a, b);
}

#[test]
fn database_generation_is_deterministic() {
    let a = build_base_db(&DatasetSpec::tiny()).unwrap();
    let b = build_base_db(&DatasetSpec::tiny()).unwrap();
    for t in specdb::tpch::TPCH_TABLES {
        assert_eq!(a.catalog().table(t).unwrap().stats, b.catalog().table(t).unwrap().stats, "{t}");
    }
}

#[test]
fn replay_is_deterministic() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |cfg: &ReplayConfig| {
        let mut db = base.clone();
        replay_trace(&mut db, &trace, cfg).unwrap()
    };
    for cfg in [ReplayConfig::normal(), ReplayConfig::speculative()] {
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.queries.len(), b.queries.len());
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.elapsed, y.elapsed);
            assert_eq!(x.rows, y.rows);
        }
        assert_eq!(a.issued, b.issued);
        assert_eq!(a.completed, b.completed);
    }
}

/// Replay outcomes must not depend on per-process hash seeds. Every
/// `build_base_db` call creates fresh hash maps with fresh random keys
/// (clones share them, so the clone-based tests above cannot see this).
/// Two engines built separately must replay a trace identically under
/// the `solo_think` benchmark's configuration: pipelining, top-3
/// whole-query prediction and subsumption matching, where several
/// equal-weight views often apply to one GO query.
#[test]
fn replay_identical_across_separately_built_engines() {
    let mut cfg = ReplayConfig::speculative();
    cfg.pipeline = true;
    cfg.speculator.predict = true;
    let model = UserModel::new(
        UserModelConfig {
            queries: 12,
            questions: 1,
            think_median_secs: 30.0,
            ..Default::default()
        },
        specdb::tpch::ExploreDomain::tpch(),
    );
    for seed in 0..4 {
        let trace = model.generate("u", 700 + seed);
        let run = || {
            let mut db = build_base_db(&DatasetSpec::tiny()).unwrap();
            db.set_match_mode(MatchMode::Subsume);
            replay_trace(&mut db, &trace, &cfg).unwrap()
        };
        let first = run();
        assert!(first.issued > 0, "trace {seed} must exercise speculation");
        assert_eq!(first, run(), "trace {seed}: two separately built engines diverged");
    }
}

/// The plan cache is pure memoization: with it on or off, a speculative
/// replay must produce the *bit-identical* outcome — same decisions,
/// same timings, same manipulation lifecycle counts.
#[test]
fn replay_identical_with_caching_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |cached: bool| {
        let mut db = base.clone();
        db.set_plan_cache(cached);
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    let cached = run(true);
    let uncached = run(false);
    assert!(cached.issued > 0, "trace must exercise speculation");
    assert_eq!(cached, uncached, "caching changed observable replay behaviour");
}

/// The morsel-parallel executor's bit-identity contract, end to end: a
/// full speculative session — queries, speculative materializations,
/// cancellations, hit/miss accounting — replayed at 1, 2, and 4 worker
/// threads must produce the identical [`ReplayOutcome`]: same rows,
/// virtual timings, speculation decisions, and manipulation lifecycle
/// counts.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_at_any_thread_count() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize| {
        let mut db = base.clone();
        db.set_threads(threads);
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    let serial = run(1);
    assert!(serial.issued > 0, "trace must exercise speculation");
    for threads in [2usize, 4] {
        let parallel = run(threads);
        assert_eq!(
            serial, parallel,
            "{threads} worker threads changed observable replay behaviour"
        );
    }
}

/// Tracing is strictly observational: a full speculative replay with
/// the tracer attached must produce the bit-identical
/// [`ReplayOutcome`] as one with observability fully disabled, at every
/// worker-thread count. Wall-clock span timestamps must never leak into
/// virtual-time accounting or speculation decisions.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_with_tracing_on_and_off() {
    use specdb::obs::{Observer, Tracer};
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize, traced: bool| {
        let mut db = base.clone();
        db.set_threads(threads);
        if traced {
            db.set_observer(Observer::enabled().with_tracer(Tracer::enabled()));
        }
        replay_trace(&mut db, &trace, &ReplayConfig::speculative()).unwrap()
    };
    for threads in [1usize, 4] {
        let plain = run(threads, false);
        let traced = run(threads, true);
        assert!(plain.issued > 0, "trace must exercise speculation");
        assert_eq!(
            plain, traced,
            "tracing changed observable replay behaviour at {threads} threads"
        );
    }
}

/// The decoded-segment cache fills only on a synchronous read, so at one
/// worker thread its hit, miss and eviction counters repeat exactly from
/// run to run under the `solo_think` benchmark's configuration. (With
/// pooled decodes two racing workers may each count a miss.)
#[test]
fn segcache_counters_repeat_at_one_thread() {
    use specdb::obs::Observer;
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let (_, cfg, mode) =
        caller_configs().into_iter().find(|(name, ..)| *name == "solo_think").unwrap();
    let run = || {
        let mut db = base.clone();
        db.set_threads(1);
        db.set_match_mode(mode);
        db.set_observer(Observer::enabled());
        replay_trace(&mut db, &trace, &cfg).unwrap();
        let snap = db.observer().metrics().snapshot();
        ["segcache.hit", "segcache.miss", "segcache.evictions"].map(|c| snap.counter(c))
    };
    let first = run();
    assert!(first[0] + first[1] > 0, "replay must read through the segment cache");
    assert_eq!(first, run(), "segment-cache counters (hit, miss, evictions) diverged");
}

/// Whole-query prediction keeps the determinism contract: for each
/// setting of the predictor knob a full speculative replay is
/// bit-identical across repeat runs and worker-thread counts, and
/// turning the predictor on or off never changes *answers* — only the
/// speculation lifecycle may differ between settings.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn replay_identical_with_prediction_on_and_off() {
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let trace = UserModel::default().generate("u", 1234);
    let run = |threads: usize, predict: bool| {
        let mut db = base.clone();
        db.set_threads(threads);
        let mut cfg = ReplayConfig::speculative();
        cfg.speculator.predict = predict;
        replay_trace(&mut db, &trace, &cfg).unwrap()
    };
    let mut per_setting = Vec::new();
    for predict in [true, false] {
        let serial = run(1, predict);
        assert!(serial.issued > 0, "trace must exercise speculation");
        assert_eq!(serial, run(1, predict), "predict={predict} replay must be reproducible");
        let parallel = run(4, predict);
        assert_eq!(serial, parallel, "4 worker threads changed the predict={predict} replay");
        per_setting.push(serial);
    }
    let (on, off) = (&per_setting[0], &per_setting[1]);
    assert!(on.predicted_issued > 0, "predictor must issue whole-query candidates");
    assert_eq!(off.predicted_issued, 0, "predict=off must never issue predictions");
    assert_eq!(on.queries.len(), off.queries.len());
    for (a, b) in on.queries.iter().zip(&off.queries) {
        assert_eq!(a.rows, b.rows, "prediction must never change answers");
    }
}

/// Every replay configuration callers use, with the match mode the
/// engine runs it under: the paper's two arms, each extension on its
/// own, the `solo_think` benchmark's combination, and the learner
/// ablation's two fixed profiles.
fn caller_configs() -> Vec<(&'static str, ReplayConfig, MatchMode)> {
    let spec = ReplayConfig::speculative();
    let mut predict = spec.clone();
    predict.speculator.predict = true;
    let oracle = oracle_profile(&UserModelConfig::default());
    vec![
        ("normal", ReplayConfig::normal(), MatchMode::Exact),
        ("speculative", spec.clone(), MatchMode::Exact),
        ("pipeline", ReplayConfig { pipeline: true, ..spec.clone() }, MatchMode::Exact),
        ("predict top-3", predict.clone(), MatchMode::Exact),
        ("subsume", spec.clone(), MatchMode::Subsume),
        ("solo_think", ReplayConfig { pipeline: true, ..predict }, MatchMode::Subsume),
        ("wait_at_go", ReplayConfig { wait_at_go: true, ..spec.clone() }, MatchMode::Exact),
        ("warm", spec.clone().warm(), MatchMode::Exact),
        (
            "oracle",
            ReplayConfig { profile: ProfileKind::Oracle(oracle), ..spec.clone() },
            MatchMode::Exact,
        ),
        (
            "uniform",
            ReplayConfig { profile: ProfileKind::Uniform(UniformProfile::default()), ..spec },
            MatchMode::Exact,
        ),
    ]
}

/// The fleet governor and the processor-sharing server are
/// behaviour-neutral for a lone session: under every caller
/// configuration, at one and four worker threads, the multi-session
/// replay of a single trace under the default governor and the contended
/// multi-user replay of it must each produce the bit-identical
/// [`ReplayOutcome`] as `replay_trace`.
/// The trace's short think gaps make builds complete, get cancelled by
/// edits and get cancelled (or waited for) at GO.
///
/// [`ReplayOutcome`]: specdb::sim::replay::ReplayOutcome
#[test]
fn single_session_under_governor_identical_to_plain_replay() {
    use specdb::sim::{replay_multi, replay_multi_session, MultiSessionConfig};
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let model = UserModel::new(
        UserModelConfig {
            queries: 8,
            questions: 2,
            think_median_secs: 0.3,
            think_min_secs: 0.05,
            think_max_secs: 5.0,
            ..Default::default()
        },
        specdb::tpch::ExploreDomain::tpch(),
    );
    let trace = model.generate("u", 1234);
    let (mut completed, mut cancelled, mut waited) = (0, 0, 0);
    for (name, cfg, mode) in caller_configs() {
        for threads in [1usize, 4] {
            let engine = || {
                let mut db = base.clone();
                db.set_threads(threads);
                db.set_match_mode(mode);
                db
            };
            let single = replay_trace(&mut engine(), &trace, &cfg).unwrap();
            let multi_cfg = MultiSessionConfig { replay: cfg.clone(), ..Default::default() };
            let multi =
                replay_multi_session(&mut engine(), std::slice::from_ref(&trace), &multi_cfg)
                    .unwrap();
            assert_eq!(
                multi.per_session[0], single,
                "the governor changed a lone {name} session at {threads} threads"
            );
            assert_eq!(multi.shared_hits, 0);
            assert_eq!(multi.preempted, 0);
            let contended =
                replay_multi(&mut engine(), std::slice::from_ref(&trace), &cfg).unwrap();
            assert_eq!(
                contended.per_session[0], single,
                "processor sharing changed a lone {name} user at {threads} threads"
            );
            completed += single.completed;
            cancelled += single.cancelled;
            waited += single.waited;
        }
    }
    assert!(completed > 0 && cancelled > 0 && waited > 0, "fixture must exercise every rule");
}

/// The concurrent multi-session replay itself is deterministic and
/// thread-count-invariant: same traces, same fleet outcome — counters,
/// timings, shared-hit accounting — at 1 and 4 worker threads.
#[test]
fn multi_session_replay_is_deterministic() {
    use specdb::sim::{replay_multi_session, MultiSessionConfig};
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let traces: Vec<_> = (0..3)
        .map(|i| {
            let cfg = UserModelConfig { queries: 6, ..Default::default() };
            UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch())
                .generate(&format!("u{i}"), 800 + i)
        })
        .collect();
    let run = |threads: usize| {
        let mut db = base.clone();
        db.set_threads(threads);
        replay_multi_session(&mut db, &traces, &MultiSessionConfig::speculative()).unwrap()
    };
    let a = run(1);
    let b = run(1);
    assert_eq!(a, b, "multi-session replay must be reproducible");
    let parallel = run(4);
    assert_eq!(a, parallel, "4 worker threads changed the fleet outcome");
}

/// The contended multi-user replay (Figure 7) is deterministic and
/// thread-count-invariant: same traces, same whole outcome at 1 and 4
/// worker threads.
#[test]
fn multi_user_replay_is_deterministic() {
    use specdb::sim::replay_multi;
    let base = build_base_db(&DatasetSpec::tiny()).unwrap();
    let traces: Vec<_> = (0..3)
        .map(|i| {
            let cfg = UserModelConfig { queries: 6, ..Default::default() };
            UserModel::new(cfg, specdb::tpch::ExploreDomain::tpch())
                .generate(&format!("u{i}"), 500 + i)
        })
        .collect();
    let run = |threads: usize| {
        let mut db = base.clone();
        db.set_threads(threads);
        replay_multi(&mut db, &traces, &ReplayConfig::speculative()).unwrap()
    };
    let a = run(1);
    assert!(a.per_session.iter().any(|u| u.issued > 0), "fleet must exercise speculation");
    assert_eq!(a, run(1), "multi-user replay must be reproducible");
    assert_eq!(a, run(4), "4 worker threads changed the multi-user outcome");
}

#[test]
fn stats_are_stable_across_recomputation() {
    let traces = UserModel::default().generate_cohort(5, 7);
    let a = TraceStats::compute(&traces);
    let b = TraceStats::compute(&traces);
    assert_eq!(a.think_time, b.think_time);
    assert_eq!(a.selection_persistence, b.selection_persistence);
}
