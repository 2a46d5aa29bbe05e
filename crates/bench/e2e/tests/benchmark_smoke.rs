//! Runs every workload with `--smoke`, untraced and traced, and checks the
//! output against `BENCHMARK.json`: every listed metric is printed as
//! `name value unit` with its unit, the output checks pass, and the trace
//! file's spans have non-negative self time.

use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`
/// (`end_to_end` or `per_layer`), found by a plain string scan.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../BENCHMARK.json");
    let json = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let rest = &json[start..];
    let end = ["\"end_to_end\"", "\"per_layer\"", "\"workloads\""]
        .iter()
        .filter_map(|k| rest[1..].find(k).map(|i| i + 1))
        .min()
        .unwrap_or(rest.len());
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
        obj[at..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    rest[..end]
        .split('{')
        .skip(1)
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Parses `"key":<number>` out of one trace line.
fn num(line: &str, key: &str) -> Option<u64> {
    let at = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    line[at..].split([',', '}']).next()?.parse().ok()
}

fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).expect("trace file written");
    let spans: Vec<(u64, u64, Option<u64>)> = text
        .lines()
        .map(|l| {
            (
                num(l, "start").expect("start"),
                num(l, "end").expect("end"),
                num(l, "parent"),
            )
        })
        .collect();
    assert!(!spans.is_empty(), "{} has no spans", path.display());
    for (id, &(start, end, _)) in spans.iter().enumerate() {
        assert!(end >= start, "span {id} ends before it starts");
        let mut kids: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.2 == Some(id as u64))
            .map(|s| (s.0.clamp(start, end), s.1.clamp(start, end)))
            .collect();
        kids.sort_unstable();
        let (mut covered, mut reach) = (0, start);
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        assert!(end - start >= covered, "span {id} has negative self time");
    }
}

fn smoke(workload: &str, seed: u64) {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let started = Instant::now();
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args([
                "--workload",
                workload,
                "--seed",
                &seed.to_string(),
                "--smoke",
                "--trace",
                trace,
            ])
            .output()
            .expect("run benchmark");
        let took = started.elapsed();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{workload} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(
            took < Duration::from_secs(5),
            "{workload} --smoke took {took:?}"
        );
        let last = stdout.lines().last().unwrap_or("");
        assert!(
            last.starts_with("{\"correct\": true"),
            "output checks failed: {last}"
        );
        for (name, unit) in listed(section) {
            assert!(valid_name(&name), "bad metric name {name:?}");
            let line = stdout
                .lines()
                .find(|l| l.split(' ').next() == Some(name.as_str()))
                .unwrap_or_else(|| panic!("{workload}: {name} not printed"));
            let parts: Vec<&str> = line.split(' ').collect();
            assert_eq!(parts.len(), 3, "{line}");
            assert!(parts[1].parse::<f64>().is_ok_and(f64::is_finite), "{line}");
            assert_eq!(parts[2], unit, "{workload}: unit of {name}");
            assert!(
                last.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} missing from the JSON line"
            );
        }
        if trace == "1" {
            check_trace(&Path::new("target/bench-traces").join(format!("{workload}-{seed}.jsonl")));
        }
    }
}

#[test]
fn net_open() {
    smoke("net-open", 9001);
}

#[test]
fn disk_long() {
    smoke("disk-long", 9002);
}

#[test]
fn cold_start() {
    smoke("cold-start", 9003);
}

#[test]
fn engine_10k() {
    smoke("engine-10k", 9004);
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("run benchmark");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
