//! Host and build fingerprint, cache geometry, and peak memory — read
//! with the standard library only.

use std::fs;
use std::path::Path;

const CACHE_DIR: &str = "/sys/devices/system/cpu/cpu0/cache";

/// One cache level as the kernel reports it for cpu0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheLevel {
    /// 1, 2, 3...
    pub level: u32,
    /// `Data`, `Instruction` or `Unified`.
    pub kind: String,
    /// Capacity in bytes.
    pub bytes: u64,
}

/// Parses a sysfs size such as `48K`, `2048K` or `105M`.
pub fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok()?.checked_mul(mult)
}

/// Cache levels of cpu0, sorted by level (empty when sysfs is absent).
pub fn caches() -> Vec<CacheLevel> {
    let Ok(dir) = fs::read_dir(CACHE_DIR) else {
        return Vec::new();
    };
    let read = |p: &Path, f: &str| fs::read_to_string(p.join(f)).ok();
    let mut out: Vec<CacheLevel> = dir
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("index"))
        })
        .filter_map(|p| {
            Some(CacheLevel {
                level: read(&p, "level")?.trim().parse().ok()?,
                kind: read(&p, "type")?.trim().to_string(),
                bytes: parse_size(&read(&p, "size")?)?,
            })
        })
        .collect();
    out.sort_by(|a, b| (a.level, &a.kind).cmp(&(b.level, &b.kind)));
    out
}

/// Capacity of the last-level data (or unified) cache.
///
/// # Errors
/// When sysfs reports no data cache: the DRAM workload cannot size its
/// arrays without it.
pub fn last_level_cache_bytes() -> Result<u64, String> {
    caches()
        .into_iter()
        .filter(|c| c.kind != "Instruction")
        .max_by_key(|c| c.level)
        .map(|c| c.bytes)
        .ok_or_else(|| format!("no data cache listed under {CACHE_DIR}"))
}

/// The rustflags this binary was compiled with (recorded by `build.rs`).
pub const RUSTFLAGS: &str = env!("PERFBENCH_RUSTFLAGS");

/// `native` when built with `-C target-cpu=native`, else `portable`.
pub fn build_mode() -> &'static str {
    if RUSTFLAGS.contains("target-cpu=native") {
        "native"
    } else {
        "portable"
    }
}

/// Worker threads the host offers.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The part of the fingerprint two results must share to be compared:
/// core count, cache geometry and build mode. The commit is recorded
/// beside it but deliberately left out, since comparing two commits is
/// the point of a comparison.
pub fn comparable_fingerprint() -> String {
    let caches: Vec<String> = caches()
        .iter()
        .map(|c| format!("L{}{}:{}", c.level, &c.kind[..1], c.bytes))
        .collect();
    format!(
        "cores={} caches={} build={}",
        cores(),
        caches.join(","),
        build_mode()
    )
}

/// The commit of the checkout: git's `HEAD` when a `.git` directory is
/// present, else `none`; always followed by an FNV-1a hash of the
/// workspace sources, which identifies checkouts that are not git
/// repositories.
pub fn commit() -> String {
    format!(
        "{}+src:{:016x}",
        git_head().unwrap_or_else(|| "none".into()),
        source_hash()
    )
}

fn git_head() -> Option<String> {
    let head = fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// FNV-1a over the sorted paths and contents of every `.rs`, `.toml` and
/// `.golden` file under `crates/`, plus the root manifest and cargo
/// config.
fn source_hash() -> u64 {
    let mut files = vec![
        "Cargo.toml".into(),
        ".cargo/config.toml".into(),
        "Cargo.lock".into(),
    ];
    collect_sources(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let body = fs::read(f).unwrap_or_default();
        for b in f.as_bytes().iter().chain(&[0]).chain(&body) {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(dir: &Path, out: &mut Vec<String>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p
            .extension()
            .and_then(|x| x.to_str())
            .is_some_and(|x| matches!(x, "rs" | "toml" | "golden"))
        {
            out.push(p.to_string_lossy().into_owned());
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K\n"), Some(48 * 1024));
        assert_eq!(parse_size("107520K"), Some(107_520 * 1024));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("64"), Some(64));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
