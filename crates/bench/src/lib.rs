#![warn(missing_docs)]
//! Shared orchestration for the experiment benches.
//!
//! Every table and figure of the paper has a bench target under
//! `benches/` (custom harnesses that print the same rows/series the
//! paper reports). This library holds the pieces they share: environment
//! knobs, cohort generation, paired normal-vs-speculative runs, and
//! figure rendering.
//!
//! Scale knobs (environment variables):
//!
//! | var | default | meaning |
//! |-----|---------|---------|
//! | `SPECDB_DIVISOR` | 50 | dataset scale divisor (DESIGN.md subst. 3) |
//! | `SPECDB_USERS`   | 6  | traces per cohort (paper: 15) |
//! | `SPECDB_QUERIES` | 30 | queries per trace (paper: 42) |
//! | `SPECDB_SEED`    | 123 | cohort base seed |
//!
//! Raising users/queries toward the paper's 15/42 tightens the
//! statistics at proportional wall-clock cost.

use specdb_exec::Database;
use specdb_sim::replay::{replay_trace, ReplayConfig, ReplayOutcome};
use specdb_sim::report::{bucketize, improvement, pair_runs, render_rows, PairedRun};
use specdb_sim::DatasetSpec;
use specdb_storage::VirtualTime;
use specdb_trace::{Trace, UserModel, UserModelConfig};

/// Bench scale parameters (see module docs for the env vars).
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Dataset scale divisor.
    pub divisor: u64,
    /// Traces per cohort.
    pub users: usize,
    /// Queries per trace.
    pub queries: usize,
    /// Cohort base seed.
    pub seed: u64,
}

impl BenchEnv {
    /// Read the environment (falling back to defaults).
    pub fn from_env() -> Self {
        let get = |k: &str, d: u64| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
        BenchEnv {
            divisor: get("SPECDB_DIVISOR", 50),
            users: get("SPECDB_USERS", 6) as usize,
            queries: get("SPECDB_QUERIES", 30) as usize,
            seed: get("SPECDB_SEED", 123),
        }
    }

    /// The paper's three dataset specs at this scale.
    pub fn specs(&self) -> Vec<DatasetSpec> {
        DatasetSpec::paper_trio(self.divisor)
    }

    /// Generate the user cohort.
    pub fn cohort(&self) -> Vec<Trace> {
        let cfg = UserModelConfig { queries: self.queries, ..Default::default() };
        UserModel::new(cfg, specdb_tpch::ExploreDomain::tpch())
            .generate_cohort(self.users, self.seed)
    }

    /// The user-model config the cohort uses (for oracle profiles).
    pub fn user_config(&self) -> UserModelConfig {
        UserModelConfig { queries: self.queries, ..Default::default() }
    }
}

/// Aggregated result of replaying a cohort under two configurations.
#[derive(Debug, Default)]
pub struct PairedCohort {
    /// Per-query (baseline, treatment) pairs across all traces.
    pub pairs: Vec<PairedRun>,
    /// Treatment-side replay outcomes (speculation statistics).
    pub treatment: Vec<ReplayOutcome>,
}

impl PairedCohort {
    /// Aggregate improvement of treatment over baseline.
    pub fn improvement_pct(&self) -> f64 {
        improvement(&self.pairs) * 100.0
    }

    /// Manipulations issued.
    pub fn issued(&self) -> u64 {
        self.treatment.iter().map(|o| o.issued).sum()
    }

    /// Manipulations completed.
    pub fn completed(&self) -> u64 {
        self.treatment.iter().map(|o| o.completed).sum()
    }

    /// Percentage of manipulations that did not complete in time.
    pub fn non_completion_pct(&self) -> f64 {
        let issued = self.issued();
        if issued == 0 {
            0.0
        } else {
            100.0 * (issued - self.completed()) as f64 / issued as f64
        }
    }

    /// Mean completed-manipulation duration.
    pub fn mean_manipulation(&self) -> VirtualTime {
        let times: Vec<VirtualTime> = self
            .treatment
            .iter()
            .flat_map(|o| o.manipulation_times.iter().copied())
            .collect();
        if times.is_empty() {
            VirtualTime::ZERO
        } else {
            times.iter().copied().sum::<VirtualTime>() / times.len() as u64
        }
    }
}

/// Replay a cohort under `baseline` and `treatment` configs against
/// clones of `base`, pairing the measurements per query.
pub fn run_paired(
    base: &Database,
    traces: &[Trace],
    baseline: &ReplayConfig,
    treatment: &ReplayConfig,
) -> PairedCohort {
    let mut out = PairedCohort::default();
    for trace in traces {
        let mut db_b = base.clone();
        let b = replay_trace(&mut db_b, trace, baseline).expect("baseline replay");
        drop(db_b);
        let mut db_t = base.clone();
        let t = replay_trace(&mut db_t, trace, treatment).expect("treatment replay");
        drop(db_t);
        out.pairs.extend(
            pair_runs(&b.queries, &t.queries).expect("paired replays of one trace must align"),
        );
        out.treatment.push(t);
    }
    out
}

/// The paper's bucket ranges per dataset label: `(lo, hi, step)` seconds.
pub fn paper_buckets(label: &str) -> (f64, f64, f64) {
    match label {
        "100MB" => (3.0, 13.0, 1.0),
        "500MB" => (10.0, 65.0, 5.0),
        "1GB" => (30.0, 140.0, 10.0),
        _ => (0.0, 1e6, 1e6),
    }
}

/// Render one figure panel: bucket rows over the paper's range plus an
/// all-queries summary line (coverage of the paper range included).
pub fn render_panel(title: &str, pairs: &[PairedRun], label: &str, extremes: bool) -> String {
    let (lo, hi, step) = paper_buckets(label);
    let min_count = if pairs.len() >= 200 { 5 } else { 2 };
    let rows = bucketize(pairs, lo, hi, step, min_count);
    let covered: usize = rows.iter().map(|r| r.count).sum();
    let mut s = render_rows(title, &rows, extremes);
    s.push_str(&format!(
        "   overall: {:+.1}% over {} queries ({} in the paper's {}-{}s range)\n",
        improvement(pairs) * 100.0,
        pairs.len(),
        covered,
        lo,
        hi,
    ));
    s
}

/// Format a virtual time in seconds with one decimal.
pub fn secs(t: VirtualTime) -> String {
    format!("{:.1}s", t.as_secs_f64())
}

/// Exact sample quantile by nearest rank over a sorted copy; `q` in
/// `[0, 1]`. Returns 0 for an empty slice. Unlike the metrics
/// registry's HDR histograms (bounded-error buckets for unbounded
/// streams), benches keep every sample, so quantiles here are exact.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Mean of a sample set (0 for empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Render a sample set's p50/p95/p99 as a JSON object fragment, e.g.
/// `{ "p50": 12.0, "p95": 40.5, "p99": 61.0 }` — the shape the
/// `BENCH_*.json` artifacts embed next to their means.
pub fn quantiles_json(samples: &[f64]) -> String {
    format!(
        "{{ \"p50\": {:.3}, \"p95\": {:.3}, \"p99\": {:.3} }}",
        quantile(samples, 0.50),
        quantile(samples, 0.95),
        quantile(samples, 0.99)
    )
}

/// Write a bench artifact `file` (e.g. `BENCH_prediction.json`) at the
/// repository root, or under the root's `target/` when `scratch` is set:
/// a smoke run whose numbers must not overwrite the checked-in
/// full-scale copy. The JSON object `body` gains a one-line
/// `"provenance": { "commit", "host_cores", "profile" }` first field.
/// A failed write is reported on stderr, not fatal.
pub fn write_artifact(file: &str, scratch: bool, body: &str) {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let provenance = provenance_json(&root);
    let dir = if scratch { root.join("target") } else { root };
    let path = dir.join(file);
    let body = body.replacen("{\n", &format!("{{\n  \"provenance\": {provenance},\n"), 1);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

/// Where an artifact's numbers came from, as a one-line JSON object:
/// the checkout's commit (see [`commit_label`]), the host's available
/// parallelism and the build profile.
fn provenance_json(repo: &std::path::Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(repo)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
    };
    let head = git(&["rev-parse", "HEAD"]);
    let status = git(&["status", "--porcelain", "--untracked-files=no"]);
    let commit = commit_label(head.as_deref(), status.as_deref());
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
    format!(
        "{{ \"commit\": \"{commit}\", \"host_cores\": {host_cores}, \"profile\": \"{profile}\" }}"
    )
}

/// The provenance commit: `git rev-parse HEAD` output (`"none"` outside
/// a git checkout), suffixed `-dirty` when `git status --porcelain
/// --untracked-files=no` lists a changed tracked file other than a
/// root-level `BENCH_*.json` — the artifact then came from code that
/// commit does not hold. The artifacts are left out because every bench
/// run rewrites its own: a regenerated artifact says nothing about the
/// code the next one is built from.
fn commit_label(head: Option<&str>, status: Option<&str>) -> String {
    let is_artifact =
        |path: &str| path.starts_with("BENCH_") && path.ends_with(".json") && !path.contains('/');
    let dirty = status.is_some_and(|s| {
        s.lines()
            .filter(|l| !l.trim().is_empty())
            .any(|l| !is_artifact(l.get(3..).unwrap_or("")))
    });
    match head.map(str::trim) {
        None => "none".into(),
        Some(head) if dirty => format!("{head}-dirty"),
        Some(head) => head.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn provenance_names_commit_cores_and_profile() {
        let line = provenance_json(std::path::Path::new(env!("CARGO_MANIFEST_DIR")));
        assert!(line.starts_with("{ \"commit\": \""), "{line}");
        assert!(line.contains("\"host_cores\": "), "{line}");
        assert!(
            line.contains("\"profile\": \"debug\"") || line.contains("\"profile\": \"release\"")
        );
        assert!(!line.contains('\n'), "one line, so CI can strip it: {line}");
    }

    #[test]
    fn commit_label_marks_a_dirty_tree() {
        assert_eq!(commit_label(Some("abc123\n"), Some("")), "abc123");
        assert_eq!(commit_label(Some("abc123\n"), Some(" M src/lib.rs\n")), "abc123-dirty");
        assert_eq!(commit_label(Some("abc123"), None), "abc123", "status unknown: not marked");
        assert_eq!(commit_label(None, Some(" M src/lib.rs\n")), "none");
        let artifacts = " M BENCH_executor.json\n M BENCH_multi_session.json\n";
        assert_eq!(commit_label(Some("abc123"), Some(artifacts)), "abc123", "artifacts only");
        let both = " M BENCH_executor.json\nM  crates/exec/src/batch.rs\n";
        assert_eq!(commit_label(Some("abc123"), Some(both)), "abc123-dirty");
        let nested = " M crates/bench/BENCH_x.json\n";
        assert_eq!(commit_label(Some("abc123"), Some(nested)), "abc123-dirty", "not an artifact");
    }

    #[test]
    fn env_defaults() {
        let env = BenchEnv::from_env();
        assert!(env.divisor >= 1);
        assert!(env.users >= 1);
        assert_eq!(env.specs().len(), 3);
    }

    #[test]
    fn paper_bucket_ranges() {
        assert_eq!(paper_buckets("100MB"), (3.0, 13.0, 1.0));
        assert_eq!(paper_buckets("1GB"), (30.0, 140.0, 10.0));
    }

    #[test]
    fn exact_quantiles_over_samples() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(quantile(&samples, 0.0), 1.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert!((quantile(&samples, 0.50) - 50.0).abs() <= 1.0);
        assert!((quantile(&samples, 0.95) - 95.0).abs() <= 1.0);
        assert!((quantile(&samples, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        let json = quantiles_json(&samples);
        assert!(json.contains("\"p95\""), "{json}");
    }

    #[test]
    fn paired_cohort_math() {
        let mut c = PairedCohort::default();
        c.pairs.push(PairedRun {
            normal: VirtualTime::from_secs(10),
            spec: VirtualTime::from_secs(6),
        });
        let o = ReplayOutcome {
            issued: 4,
            completed: 3,
            manipulation_times: vec![VirtualTime::from_secs(6)],
            ..Default::default()
        };
        c.treatment.push(o);
        assert!((c.improvement_pct() - 40.0).abs() < 1e-9);
        assert!((c.non_completion_pct() - 25.0).abs() < 1e-9);
        assert_eq!(c.mean_manipulation(), VirtualTime::from_secs(6));
    }
}
