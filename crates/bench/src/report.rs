//! Which commit a measurement belongs to.
//!
//! `ufabbench/src/host.rs` stamps every report with [`git_rev`] and
//! [`git_dirty`]: a `dirty` record cannot be attributed to any single
//! commit and is to be treated as provisional.

/// Best-effort short git revision; `"unknown"` outside a work tree.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the work tree has uncommitted changes (staged or not).
/// `false` outside a work tree — consistent with `git_rev()`'s
/// `"unknown"`, the pair reads as "no commit to attribute to".
pub fn git_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}
