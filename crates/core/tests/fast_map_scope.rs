//! Session-hot code builds its maps with `FastMap`. Clippy's
//! `disallowed_methods` (clippy.toml) rejects `HashMap::new` and
//! `HashMap::with_capacity` there, but `HashMap::default()` goes through
//! `Default` and does not resolve as a disallowed path, so this test reads
//! the session-hot sources and rejects that spelling.

use std::path::Path;

#[test]
fn session_hot_code_builds_no_default_hasher_map() {
    // The core query hot path plus the serve batch dedup.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = vec![src.join("../../serve/src/service.rs")];
    for m in "clock_cache conditioning piecewise pool".split(' ') {
        files.push(src.join(m).with_extension("rs"));
    }
    for dir in ["estimator", "simd"] {
        for entry in std::fs::read_dir(src.join(dir)).unwrap() {
            files.push(entry.unwrap().path());
        }
    }
    for path in files {
        let text = std::fs::read_to_string(&path).unwrap();
        // A file's test code is its trailing `#[cfg(test)] mod tests`.
        let code = text.split("\n#[cfg(test)]\n").next().unwrap_or_default();
        for (n, line) in code.lines().enumerate() {
            let line = line.trim_start();
            let hit = line.contains("HashMap::default") || line.contains("HashSet::default");
            assert!(
                !hit || line.starts_with("//"),
                "{}:{}: session-hot code uses FastMap, not `{line}`",
                path.display(),
                n + 1
            );
        }
    }
}
