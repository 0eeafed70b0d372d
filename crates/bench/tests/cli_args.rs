//! Malformed `topsexec` argument vectors never panic.
//!
//! Every case below is rejected while its subcommand parses its flags,
//! so no case compiles or simulates anything. Each must exit with
//! status 1 (not 101, a panic), explain itself on stderr, and print
//! nothing on stdout, where scripts read reports.

use std::process::Command;

/// Subcommand prefixes: every entry point `main` routes on.
const SUBCOMMANDS: &[&[&str]] = &[
    &[],
    &["serve"],
    &["serve", "--generative"],
    &["sweep"],
    &["faults"],
    &["top"],
    &["top", "--generative"],
    &["slo"],
    &["profile"],
    &["fleet"],
    &["fleet", "top"],
];

/// Malformed tails every subcommand must reject.
const COMMON: &[&[&str]] = &[
    // A flag with its value missing.
    &["--chip"],
    // An unknown flag.
    &["--no-such-flag"],
    // The removed timing-backend selector.
    &["--timing", "analytic"],
];

/// Per-subcommand malformed tails: a non-numeric number, plus the
/// values that used to be accepted and silently misbehave.
fn specific(sub: &[&str]) -> Vec<Vec<&'static str>> {
    let cases: &[&[&str]] = match sub {
        [] | ["profile"] => &[&["--batch", "two"]],
        ["sweep"] => &[
            &["--jobs", "many"],
            &["--batches", "0"],
            &["--batches", "1,0"],
        ],
        ["faults"] | ["slo"] => &[&["--seed", "x7"]],
        ["serve"] | ["serve", "--generative"] | ["top"] | ["top", "--generative"] => &[
            &["--duration", "long"],
            &["--qps", "-1"],
            &["--qps", "nan"],
            &["--qps", "inf"],
        ],
        ["fleet"] | ["fleet", "top"] => {
            &[&["--chips", "four"], &["--qps", "-1"], &["--qps", "nan"]]
        }
        other => panic!("no specific cases for {other:?}"),
    };
    cases.iter().map(|c| c.to_vec()).collect()
}

#[test]
fn malformed_args_exit_1_without_panicking() {
    let mut failures = Vec::new();
    let mut ran = 0;
    for sub in SUBCOMMANDS {
        let tails = COMMON.iter().map(|c| c.to_vec()).chain(specific(sub));
        for tail in tails {
            let argv: Vec<&str> = sub.iter().copied().chain(tail).collect();
            let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
                .args(&argv)
                .output()
                .expect("topsexec starts");
            ran += 1;
            let stderr = String::from_utf8_lossy(&out.stderr);
            if out.status.code() != Some(1) || stderr.trim().is_empty() || !out.stdout.is_empty() {
                failures.push(format!(
                    "topsexec {}: status {:?}, {} stdout bytes, stderr: {}",
                    argv.join(" "),
                    out.status.code(),
                    out.stdout.len(),
                    stderr.lines().next().unwrap_or("")
                ));
            }
        }
    }
    assert!(ran >= 50, "only {ran} cases ran");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn rejections_name_the_bad_value() {
    let cases: &[(&[&str], &str)] = &[
        (&["sweep", "--batches", "0"], "bad batch size '0'"),
        (&["serve", "--qps", "-1"], "--qps"),
        (&["fleet", "--qps", "nan"], "--qps"),
        (
            &["sweep", "--timing", "analytic"],
            "unknown sweep flag '--timing'",
        ),
    ];
    for (argv, needle) in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
            .args(*argv)
            .output()
            .expect("topsexec starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "topsexec {}: stderr lacks `{needle}`: {stderr}",
            argv.join(" ")
        );
    }
}

#[test]
fn import_with_overflowing_dims_exits_1() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("overflowing_dims.tops");
    let model = "model m\ninput x fp16 99999999999999999999999x4\nrelu r x\noutput r\n";
    std::fs::write(&path, model).expect("temp dir is writable");
    let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
        .arg("--import")
        .arg(&path)
        .output()
        .expect("topsexec starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: ") && out.stdout.is_empty(),
        "{stderr}"
    );
}

#[test]
fn import_failing_shape_inference_exits_1_before_any_output() {
    // Parses, but a 99x99 kernel does not fit the 8x8 input.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("oversized_kernel.tops");
    let model = "model m\ninput x fp16 1x4x8x8\nconv c x out=4 k=99\noutput c\n";
    std::fs::write(&path, model).expect("temp dir is writable");
    for mode in [&[][..], &["profile"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_topsexec"))
            .args(mode)
            .arg("--import")
            .arg(&path)
            .output()
            .expect("topsexec starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{mode:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{mode:?}: report printed before the failure"
        );
        let prefixes =
            stderr.matches("compile error").count() + stderr.matches("shape inference").count();
        assert_eq!(prefixes, 1, "{mode:?}: {stderr}");
    }
}
