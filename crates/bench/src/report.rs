//! Output helpers: CSV files under `results/`, `BENCH_*.json` documents
//! (with telemetry-snapshot siblings when `MM_TELEMETRY` is on), aligned
//! console tables, and the shared wall-clock/throughput measurement used by
//! every bench.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Directory where experiment binaries write their CSV outputs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MM_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Read a `u64` environment knob, falling back to `default`.
pub fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read a per-bench evaluation budget: the bench-specific variable wins,
/// then the CI-wide `MM_CI_BENCH_EVALS` fallback, then `default`. This is
/// what lets `ci.yml` size *every* bench with one variable instead of one
/// `MM_*_BENCH_EVALS` per bench.
pub fn env_evals(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| env_u64("MM_CI_BENCH_EVALS", default))
}

/// The one wall-clock/throughput measurement every bench shares: start it,
/// do the work, read `elapsed_s`/`rate` — instead of each bench hand-rolling
/// its own `Instant`/`as_secs_f64`/guarded-division triple.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Seconds elapsed since `start`.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Units per second since `start` (`0.0` on a zero-length interval).
    pub fn rate(&self, units: u64) -> f64 {
        rate(units, self.elapsed_s())
    }
}

/// `units / secs`, yielding `0.0` instead of `inf`/`NaN` on a zero-length
/// interval — the convention every bench rate field uses.
pub fn rate(units: u64, secs: f64) -> f64 {
    if secs > 0.0 {
        units as f64 / secs
    } else {
        0.0
    }
}

/// Write a `BENCH_*.json` document under the results directory, returning
/// the path written.
///
/// When telemetry is collecting (`MM_TELEMETRY` at `counters` or above), a
/// `TELEMETRY_*` sibling with the current snapshot is written next to it —
/// e.g. `BENCH_mapper.json` gets `TELEMETRY_mapper.json` — so every bench
/// run leaves its counters and journal beside its numbers for free. At the
/// `spans` level a `TRACE_*` sibling is also written: the snapshot's span
/// tracks rendered as a Chrome trace-event JSON array, loadable directly in
/// Perfetto or `chrome://tracing`. Sibling write errors are swallowed:
/// telemetry must never fail a bench.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the bench
/// document itself.
pub fn write_bench_json(name: &str, json: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    fs::write(&path, json)?;
    if let Some(snapshot) = mm_telemetry::snapshot_if_enabled() {
        let rest = name.strip_prefix("BENCH_").unwrap_or(name);
        let _ = fs::write(dir.join(format!("TELEMETRY_{rest}")), snapshot.to_json());
        // Gate on the level, not only on the snapshot: a span begun at the
        // spans level by another thread can land after the level dropped.
        if mm_telemetry::span_enabled() && snapshot.has_spans() {
            let _ = fs::write(
                dir.join(format!("TRACE_{rest}")),
                snapshot.to_chrome_trace(),
            );
        }
    }
    Ok(path)
}

/// Write a CSV file (header + rows) under the results directory, returning
/// the path written.
///
/// # Errors
///
/// Returns any I/O error from creating the directory or writing the file.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut file = fs::File::create(&path)?;
    writeln!(file, "{}", header.join(","))?;
    for row in rows {
        writeln!(file, "{}", row.join(","))?;
    }
    Ok(path)
}

/// Render an aligned text table (header + rows) for console output.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Format a float with a fixed number of significant-ish decimals for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1000.0 || v.abs() < 0.01 {
        format!("{v:.3e}")
    } else {
        format!("{v:.3}")
    }
}

/// Check whether a path exists and is a file (helper for tests).
pub fn is_file(path: &Path) -> bool {
    path.is_file()
}

/// Serializes tests (crate-wide) that mutate process-global state — the
/// results-dir env var or the telemetry level — against each other.
#[cfg(test)]
pub(crate) fn test_env_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
        let _guard = test_env_guard();
        std::env::set_var(
            "MM_RESULTS_DIR",
            std::env::temp_dir().join("mm_test_results"),
        );
        let path = write_csv(
            "unit_test.csv",
            &["a", "b"],
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        )
        .unwrap();
        assert!(is_file(&path));
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("a,b\n1,2\n3,4"));
        std::env::remove_var("MM_RESULTS_DIR");
    }

    #[test]
    fn table_formatting_aligns_columns() {
        let t = format_table(
            &["method", "edp"],
            &[
                vec!["SA".into(), "12.5".into()],
                vec!["MindMappings".into(), "4.2".into()],
            ],
        );
        assert!(t.contains("method"));
        assert!(t.contains("MindMappings"));
        assert!(t.lines().count() >= 4);
    }

    #[test]
    fn stopwatch_and_rate_conventions() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(sw.elapsed_s() >= 0.0);
        assert!(sw.rate(100) >= 0.0);
        assert_eq!(rate(100, 0.0), 0.0, "zero interval must not divide");
        assert_eq!(rate(100, 2.0), 50.0);
    }

    #[test]
    fn bench_json_writes_telemetry_sibling_when_enabled() {
        let _guard = test_env_guard();
        let dir = std::env::temp_dir().join("mm_test_bench_json");
        let _ = std::fs::remove_dir_all(&dir); // stale siblings from prior runs
        std::env::set_var("MM_RESULTS_DIR", &dir);
        mm_telemetry::set_level(mm_telemetry::Level::Off);
        // Drop anything concurrent tests recorded while the ambient level
        // (MM_TELEMETRY) was on — stale spans would fake a trace sibling.
        mm_telemetry::global().reset();
        let path = write_bench_json("BENCH_unit.json", "{}\n").unwrap();
        assert!(is_file(&path));
        assert!(!dir.join("TELEMETRY_unit.json").exists());

        mm_telemetry::set_level(mm_telemetry::Level::Counters);
        mm_telemetry::counter("bench.unit_test").bump(3);
        write_bench_json("BENCH_unit.json", "{}\n").unwrap();
        let sibling = dir.join("TELEMETRY_unit.json");
        assert!(is_file(&sibling));
        let snapshot = std::fs::read_to_string(&sibling).unwrap();
        assert!(snapshot.contains("\"bench.unit_test\": 3"));
        assert!(
            !dir.join("TRACE_unit.json").exists(),
            "no trace sibling below the spans level"
        );

        mm_telemetry::set_level(mm_telemetry::Level::Spans);
        {
            let track = mm_telemetry::track("bench.unit");
            let _span = track.span("unit.work");
        }
        write_bench_json("BENCH_unit.json", "{}\n").unwrap();
        let trace = std::fs::read_to_string(dir.join("TRACE_unit.json")).unwrap();
        assert!(trace.contains("\"ph\": \"X\""));
        assert!(trace.contains("unit.work"));
        mm_telemetry::set_level(mm_telemetry::Level::Off);
        mm_telemetry::global().reset();
        std::env::remove_var("MM_RESULTS_DIR");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1234567.0).contains('e'));
        assert!(fmt(0.0001).contains('e'));
        assert_eq!(fmt(12.3456), "12.346");
    }
}
