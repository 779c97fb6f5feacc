//! The machine fingerprint printed with every result, so results from
//! different machines, kernel backends or sources are never compared.

use std::path::Path;

/// CPU model, parallelism, kernel backend, revision, compiler, seed.
pub fn fingerprint(workload: &str, seed: u64) -> String {
    let fields = [
        ("cpu", crate::json_string(&cpu_model())),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, usize::from)
                .to_string(),
        ),
        (
            "kernel_backend",
            crate::json_string(dpgrid_kernels::active_backend()),
        ),
        ("git_revision", crate::json_string(&git_revision())),
        ("source_digest", crate::json_string(&source_digest())),
        ("rustc", crate::json_string(env!("PERFBENCH_RUSTC_VERSION"))),
        ("workload", crate::json_string(workload)),
        ("seed", seed.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD`'s commit when run from a git work tree, else `"none"`.
fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(commit) = std::fs::read_to_string(git.join(reference)) {
        return commit.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|commit| commit.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the paths and bytes of the Rust sources and manifests
/// under `crates/` and the root manifest: identifies the measured
/// source where no git metadata exists.
fn source_digest() -> String {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for b in path.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs") | Some("toml")
        ) {
            out.push(path);
        }
    }
}
