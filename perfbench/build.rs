//! Captures the toolchain, build profile and source commit for the
//! benchmark's environment fingerprint.

use std::path::Path;
use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = command_line(Command::new(rustc).arg("--version"));
    println!(
        "cargo:rustc-env=PERFBENCH_RUSTC={}",
        version.unwrap_or_else(|| "unknown".into())
    );
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");

    // The commit is read only when the sources sit in a git checkout; an
    // exported tree reports "unknown".
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let repo = Path::new(&manifest).join("..");
    let git_dir = repo.join(".git");
    let commit = if git_dir.exists() {
        for watched in ["HEAD", "refs/heads"] {
            let path = git_dir.join(watched);
            if path.exists() {
                println!("cargo:rerun-if-changed={}", path.display());
            }
        }
        command_line(
            Command::new("git")
                .arg("-C")
                .arg(&repo)
                .args(["rev-parse", "HEAD"]),
        )
    } else {
        None
    };
    println!(
        "cargo:rustc-env=PERFBENCH_COMMIT={}",
        commit.unwrap_or_else(|| "unknown".into())
    );
    println!("cargo:rerun-if-changed=build.rs");
}

/// First line of a command's standard output, when it runs and succeeds.
fn command_line(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    text.lines().next().map(|l| l.trim().to_string())
}
