//! The host fingerprint printed with every result, and the pinning of the
//! environment knobs that would otherwise change what is measured.

/// Environment knobs the program reads, with the value the benchmark pins
/// (`None` = removed).
const PINNED: [(&str, Option<&str>); 3] = [
    // The default engine: one shard per round.
    ("CONGEST_SHARDS", Some("1")),
    // No content-addressed cell cache.
    ("CONGEST_CACHE", None),
    // No ambient telemetry; traced passes turn it on through the API.
    ("CONGEST_TELEMETRY", None),
];

/// Logical CPUs available to this process.
#[must_use]
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Pins the program's environment knobs and sizes the worker pool to
/// `nproc`. Call first thing in `main`, before any thread starts or the
/// pool is built.
pub fn pin_environment() {
    for (key, value) in PINNED {
        match value {
            Some(v) => std::env::set_var(key, v),
            None => std::env::remove_var(key),
        }
    }
    std::env::set_var("RAYON_NUM_THREADS", nproc().to_string());
}

/// One line naming the host and build the numbers were taken on.
#[must_use]
pub fn fingerprint() -> String {
    let pinned: Vec<String> = PINNED
        .iter()
        .map(|(k, v)| format!("{k}={}", v.unwrap_or("<unset>")))
        .collect();
    format!(
        "host: nproc={} pool={} rustc=\"{}\" target={} target_features={} env=[{}]",
        nproc(),
        rayon::current_num_threads(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_TARGET"),
        env!("PERFBENCH_TARGET_FEATURES"),
        pinned.join(" ")
    )
}
