//! End-to-end smokes for `rrs chaos` and the typed data-dir validation:
//! the quick lattice passes all oracles, two sweeps from the same seed are
//! byte-identical, and an unusable `--data-dir` is rejected with exit
//! code 2 instead of a panic — for both `chaos` and `serve-sim`.

use std::process::{Command, Output};

fn rrs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rrs"))
        .args(args)
        .output()
        .expect("spawn rrs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rrs-chaos-cli-{tag}-{}", std::process::id()))
}

#[test]
fn quick_lattice_passes_and_is_deterministic() {
    let dir_a = temp_path("sweep-a");
    let dir_b = temp_path("sweep-b");
    let a = rrs(&["chaos", "--quick", "--json", "--data-dir", dir_a.to_str().unwrap()]);
    assert!(a.status.success(), "sweep failed: {}", stderr(&a));
    let b = rrs(&["chaos", "--quick", "--json", "--data-dir", dir_b.to_str().unwrap()]);
    assert!(b.status.success(), "rerun failed: {}", stderr(&b));
    assert_eq!(
        a.stdout, b.stdout,
        "two sweeps of the same lattice must be byte-identical"
    );
    let doc = serde_json::parse(&String::from_utf8_lossy(&a.stdout)).expect("valid JSON");
    assert_eq!(
        doc.get_field("report"),
        Some(&serde_json::Value::Str("chaos-lattice".into()))
    );
    let total = doc.get_field("cells_total").expect("cells_total");
    let passed = doc.get_field("cells_passed").expect("cells_passed");
    // 2 base seeds x 3 worker-fault levels x 3 IO-fault levels x 2 backends:
    // a lattice that silently loses (or gains) an axis fails here.
    assert_eq!(total, &serde_json::Value::U64(36), "quick lattice size");
    assert_eq!(total, passed, "every cell must pass its oracles");
    assert_eq!(
        doc.get_field("failures"),
        Some(&serde_json::Value::Array(Vec::new()))
    );
}

#[test]
fn written_report_matches_stdout_report() {
    let out_path = temp_path("report.json");
    let dir = temp_path("sweep-out");
    let run = rrs(&[
        "chaos",
        "--quick",
        "--json",
        "--out",
        out_path.to_str().unwrap(),
        "--data-dir",
        dir.to_str().unwrap(),
    ]);
    assert!(run.status.success(), "sweep failed: {}", stderr(&run));
    let written = std::fs::read_to_string(&out_path).expect("report written");
    assert_eq!(
        written.trim_end(),
        String::from_utf8_lossy(&run.stdout).trim_end(),
        "--out must write exactly the printed report"
    );
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn chaos_rejects_a_non_directory_data_dir_with_exit_2() {
    let file = temp_path("notadir-chaos");
    std::fs::write(&file, b"plain file").unwrap();
    let out = rrs(&["chaos", "--quick", "--data-dir", file.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("invalid data dir"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must fail cleanly, got: {err}");
    let _ = std::fs::remove_file(&file);
}

#[test]
fn serve_sim_rejects_a_non_directory_data_dir_with_exit_2() {
    let file = temp_path("notadir-serve");
    std::fs::write(&file, b"plain file").unwrap();
    let out = rrs(&[
        "serve-sim",
        "--tenants",
        "2",
        "--rounds",
        "3",
        "--storage",
        "disk",
        "--data-dir",
        file.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr(&out);
    assert!(err.contains("invalid data dir"), "stderr: {err}");
    assert!(!err.contains("panicked"), "must fail cleanly, got: {err}");
    let _ = std::fs::remove_file(&file);
}
