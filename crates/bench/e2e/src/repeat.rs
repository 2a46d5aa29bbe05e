//! `--repeat N`: N separate processes per workload (seeds `seed`,
//! `seed + 1`, …, workloads interleaved), then each metric's median,
//! quartiles and spread across the runs — the numbers the bounds in
//! `BENCHMARK.json` are set from.

use crate::stats::{median, quartiles};
use crate::Workload;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// Parses the `metrics` object of a result line into `(name, value, unit)`.
fn parse_metrics(line: &str) -> Option<Vec<(String, f64, String)>> {
    let body = &line[line.find("\"metrics\": {")? + 12..];
    let mut out = Vec::new();
    for item in body.split("}, ").map(|s| s.trim_end_matches('}')) {
        let (name, rest) = item
            .trim_start_matches('"')
            .split_once("\": {\"value\": ")?;
        let (value, unit) = rest.split_once(", \"unit\": \"")?;
        out.push((
            name.to_string(),
            value.parse().ok()?,
            unit.trim_end_matches('"').to_string(),
        ));
    }
    Some(out)
}

pub fn run(
    workloads: &[Workload],
    seed: u64,
    n: usize,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("repeat: cannot locate the benchmark executable");
        return ExitCode::from(2);
    };
    let mut values: BTreeMap<(&str, String), (String, Vec<f64>)> = BTreeMap::new();
    let mut ok = true;
    for i in 0..n as u64 {
        for w in workloads {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name(), "--seed", &(seed + i).to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            if smoke {
                cmd.arg("--smoke");
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("repeat: {e}");
                    return ExitCode::from(2);
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let parsed = parse_metrics(last);
            println!(
                "# run {} seed {}: exit {:?}, {}",
                w.name(),
                seed + i,
                out.status.code(),
                last
            );
            ok &= out.status.success() && last.contains("\"correct\": true") && parsed.is_some();
            for (name, value, unit) in parsed.unwrap_or_default() {
                values
                    .entry((w.name(), name))
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{:<12} {:<34} {:>6} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "workload", "metric", "runs", "median", "q1", "q3", "iqr/med", "max/med"
    );
    for ((w, name), (unit, v)) in &values {
        let (Some(med), Some((q1, q3))) = (median(v), quartiles(v)) else {
            continue;
        };
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let rel = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
        println!(
            "{w:<12} {:<34} {:>6} {med:>14.6} {q1:>14.6} {q3:>14.6} {:>9.4} {:>9.4}",
            format!("{name} ({unit})"),
            v.len(),
            rel(q3 - q1),
            rel(hi - lo),
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_result_line() {
        let line = "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"a.b_us.p50\": {\"value\": 12, \"unit\": \"us\"}}}";
        let m = parse_metrics(line).unwrap();
        assert_eq!(
            m,
            vec![
                ("setup_s".into(), 0.5, "s".into()),
                ("a.b_us.p50".into(), 12.0, "us".into())
            ]
        );
    }
}
