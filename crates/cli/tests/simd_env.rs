//! `HDIDX_SIMD` is resolved before any command runs: a malformed value
//! exits with status 1 and an error naming the variable, never a panic.

use std::process::{Command, Output};

fn hdidx(simd_env: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hdidx"))
        .args(args)
        .env("HDIDX_SIMD", simd_env)
        .output()
        .expect("spawn hdidx")
}

#[test]
fn malformed_hdidx_simd_is_a_typed_error_before_any_work() {
    let dir = std::env::temp_dir().join("hdidx_cli_simd_env");
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("points.csv");
    let _ = std::fs::remove_file(&csv);
    let csv_arg = csv.to_str().unwrap();
    let generate = [
        "generate",
        "--dataset",
        "texture48",
        "--scale",
        "0.01",
        "--out",
        csv_arg,
    ];

    for junk in ["junk", "avx", ""] {
        let out = hdidx(junk, &generate);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "HDIDX_SIMD={junk:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains("HDIDX_SIMD"),
            "HDIDX_SIMD={junk:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(!csv.exists(), "no work may run before the check");
    }
    // The flag does not hide a malformed environment value.
    let out = hdidx(
        "junk",
        &[
            "predict", "--data", csv_arg, "--m", "10", "--simd", "scalar",
        ],
    );
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("HDIDX_SIMD"));

    // Every valid spelling runs.
    for ok in ["auto", "scalar", " scalar "] {
        let out = hdidx(ok, &generate);
        assert!(
            out.status.success(),
            "HDIDX_SIMD={ok:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(csv.exists());
    }
    let _ = std::fs::remove_file(&csv);
}
