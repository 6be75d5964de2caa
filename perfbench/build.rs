//! Build-time provenance: the commit (when the source tree is a git
//! checkout), a digest of the program's and the benchmark's sources, the
//! rustc version and the build profile. The digest identifies the tree
//! even where no git metadata exists.

use std::path::{Path, PathBuf};
use std::process::Command;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(path.extension().and_then(|e| e.to_str()), Some("rs" | "toml")) {
            out.push(path);
        }
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest.parent().expect("perfbench sits inside the repository").to_path_buf();
    // the program's sources and the benchmark's own: the reference search
    // answers memoised under this digest depend on both
    let mut files = Vec::new();
    for dir in [root.join("crates"), root.join("shims"), manifest.join("src")] {
        collect(&dir, &mut files);
        println!("cargo:rerun-if-changed={}", dir.display());
    }
    for manifest_file in [root.join("Cargo.toml"), manifest.join("Cargo.toml")] {
        println!("cargo:rerun-if-changed={}", manifest_file.display());
        files.push(manifest_file);
    }
    files.sort();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let rel = f.strip_prefix(&root).unwrap_or(f);
        fnv(&mut digest, rel.to_string_lossy().as_bytes());
        fnv(&mut digest, &std::fs::read(f).unwrap_or_default());
    }

    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .current_dir(&root)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    // a new commit moves the reflog even when no source file changed
    let reflog = root.join(".git/logs/HEAD");
    if reflog.exists() {
        println!("cargo:rerun-if-changed={}", reflog.display());
    }
    let commit = run("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let rustc_version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());

    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!("cargo:rustc-env=PERFBENCH_RUSTC={rustc_version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
}
