//! The machine fingerprint printed with every result: timings taken on
//! different hosts, thread budgets or builds are not comparable.

use radio_sim::Json;

/// Host and build facts that change what a timing means.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Available parallelism of this process.
    pub nproc: usize,
    /// AVX-512 Foundation support (the tiled kernel dispatches on it).
    pub avx512f: bool,
    /// AVX-512 Byte/Word support.
    pub avx512bw: bool,
    /// The `RADIO_THREADS` override, if set.
    pub radio_threads: Option<String>,
    /// Cargo profile and optimisation level of this build.
    pub profile: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the checkout, when it is a git work tree.
    pub commit: Option<String>,
}

impl Fingerprint {
    /// Probes the current process and build.
    pub fn probe() -> Fingerprint {
        let (avx512f, avx512bw) = simd();
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |p| p.get()),
            avx512f,
            avx512bw,
            radio_threads: std::env::var("RADIO_THREADS").ok(),
            profile: format!(
                "{} (opt-level {})",
                env!("PERFBENCH_PROFILE"),
                env!("PERFBENCH_OPT_LEVEL")
            ),
            rustc: env!("PERFBENCH_RUSTC").to_string(),
            commit: git_commit(),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn to_json(&self) -> Json {
        Json::object([
            ("nproc", Json::from(self.nproc)),
            ("avx512f", Json::from(self.avx512f)),
            ("avx512bw", Json::from(self.avx512bw)),
            ("radio_threads", Json::from(self.radio_threads.clone())),
            ("profile", Json::from(self.profile.clone())),
            ("rustc", Json::from(self.rustc.clone())),
            ("commit", Json::from(self.commit.clone())),
        ])
    }
}

#[cfg(target_arch = "x86_64")]
fn simd() -> (bool, bool) {
    (
        is_x86_feature_detected!("avx512f"),
        is_x86_feature_detected!("avx512bw"),
    )
}

#[cfg(not(target_arch = "x86_64"))]
fn simd() -> (bool, bool) {
    (false, false)
}

/// Resolves `.git/HEAD` in the working directory without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|line| {
        let (hash, name) = line.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}
