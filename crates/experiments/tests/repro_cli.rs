//! `repro`'s command line: bad operands exit 2 with a labelled message
//! before any scenario runs.

use std::process::Command;

fn repro(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn trace_capacity_is_range_checked() {
    for cap in ["999999999999999", "0", "4194305"] {
        let (code, err) = repro(&["fig4", "--quick", "--trace", cap]);
        assert_eq!(code, Some(2), "--trace {cap}: {err}");
        assert!(
            err.starts_with(&format!(
                "error: --trace {cap} is out of range [1, 4194304]"
            )),
            "--trace {cap}: {err}"
        );
    }
}

#[test]
fn trace_leaves_a_non_numeric_token_alone() {
    // `--list` after a bare `--trace` is still a flag, not an operand.
    let (code, err) = repro(&["--trace", "--list"]);
    assert_eq!(code, Some(0), "{err}");
}
