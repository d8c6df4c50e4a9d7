//! Runs every workload end to end at the tiny size, untraced and traced,
//! and checks the printed result line: every metric `BENCHMARK.json`
//! declares is there with its unit, nothing failed, every answer matched
//! the reference, and each read workload exercises the router cache the
//! way it claims to.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::OnceLock;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("package sits in the repo").to_path_buf()
}

/// Builds the `graphmine` binary once and returns its path.
fn graphmine() -> &'static Path {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        let root = root();
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .map(|t| if t.is_absolute() { t } else { root.join(t) })
            .unwrap_or_else(|| root.join("target"));
        let status = Command::new(env!("CARGO"))
            .args(["build", "--release", "--offline", "--quiet", "--bin", "graphmine"])
            .arg("--manifest-path")
            .arg(root.join("Cargo.toml"))
            .env("CARGO_TARGET_DIR", &target)
            .status()
            .expect("run cargo");
        assert!(status.success(), "building graphmine failed");
        target.join("release").join("graphmine")
    })
}

/// The metric names of one section (`end_to_end` or `per_layer`) of
/// `BENCHMARK.json`.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let rest = &text[start..];
    let end = rest[1..].find("\n  \"").map_or(rest.len(), |i| i + 1);
    rest[..end]
        .split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("closing quote").to_string())
        .collect()
}

/// One run's JSON result line.
struct ResultLine {
    line: String,
}

impl ResultLine {
    fn metric(&self, name: &str) -> (f64, String) {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = self.line.find(&key).unwrap_or_else(|| panic!("no `{name}` in {}", self.line));
        let rest = &self.line[at + key.len()..];
        let (value, rest) = rest.split_once(", \"unit\": \"").expect("value then unit");
        let unit = rest.split('"').next().expect("unit").to_string();
        (value.parse().expect("numeric value"), unit)
    }

    fn header(&self, key: &str) -> String {
        let at = self.line.find(&format!("\"{key}\": ")).expect("header key");
        let rest = &self.line[at + key.len() + 4..];
        rest.split([',', '}']).next().expect("header value").to_string()
    }
}

fn run(workload: &str, trace: u8) -> ResultLine {
    let work_dir = root().join(".fleetbench").join(format!("test-{workload}-{trace}"));
    let out = Command::new(env!("CARGO_BIN_EXE_fleetbench"))
        .arg("--graphmine")
        .arg(graphmine())
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", &trace.to_string(), "--size", "tiny"])
        .arg("--work-dir")
        .arg(&work_dir)
        .output()
        .expect("run fleetbench");
    let _ = std::fs::remove_dir_all(&work_dir);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{}{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = stdout.lines().last().expect("a result line").to_string();
    let result = ResultLine { line };
    assert_eq!(result.header("correct"), "true");
    assert_eq!(result.header("failed"), "0");
    let section = if trace == 1 { "per_layer" } else { "end_to_end" };
    let names = declared(section);
    assert!(!names.is_empty(), "BENCHMARK.json declares no {section} metrics");
    for name in names {
        let (value, unit) = result.metric(&name);
        assert!(value.is_finite(), "{name} = {value}");
        assert!(!unit.is_empty(), "{name} has no unit");
    }
    result
}

/// Checks one workload untraced and traced; returns the cache hit ratio.
fn workload(name: &str) -> f64 {
    run(name, 0);
    let traced = run(name, 1);
    assert_eq!(traced.metric("failed_ratio").0, 0.0);
    traced.metric("router.cache_hit_ratio").0
}

#[test]
fn read_hot_is_answered_by_the_router_cache() {
    let hits = workload("read-hot");
    assert!(hits >= 0.9, "read-hot cache hit ratio {hits}");
}

#[test]
fn read_cold_bypasses_the_router_cache() {
    let hits = workload("read-cold");
    assert!(hits <= 0.05, "read-cold cache hit ratio {hits}");
}

#[test]
fn churn_commits_windows_beside_a_reader() {
    workload("churn");
}
