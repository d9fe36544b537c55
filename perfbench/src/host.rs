//! The host stamp printed with every result: hardware threads, CPU
//! model, AES backend and the source revision, so a number is never read
//! without the machine and code it was measured on.

use std::path::Path;

/// Where and on what a run was measured.
#[derive(Clone, Debug)]
pub struct HostStamp {
    /// Hardware threads the process may run on.
    pub hardware_threads: usize,
    /// CPU model name, or `unknown`.
    pub cpu_model: String,
    /// AES backend the crypto crate selected at run time.
    pub aes_backend: &'static str,
    /// Git revision of the checkout, or `unknown` outside a git checkout.
    pub git_rev: String,
}

impl HostStamp {
    /// Reads the stamp of this host and checkout.
    pub fn collect() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        HostStamp {
            hardware_threads: hardware_threads(),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            aes_backend: hummingbird_crypto::active_backend().name(),
            git_rev: git_rev(&root).unwrap_or_else(|| "unknown".into()),
        }
    }

    /// The stamp as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"hardware_threads\": {}, \"cpu_model\": \"{}\", \"aes_backend\": \"{}\", \
             \"git_rev\": \"{}\"}}",
            self.hardware_threads,
            self.cpu_model.replace(['"', '\\'], ""),
            self.aes_backend,
            self.git_rev
        )
    }
}

/// Hardware threads available to this process.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// The commit `HEAD` names, read straight from `.git` (no subprocess).
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
