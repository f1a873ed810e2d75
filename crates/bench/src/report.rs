//! Output helpers: CSV files under `results/`, aligned console tables, and
//! the wall-clock stopwatch `eval_hot_path` times its loops with.

use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Directory where experiment binaries write their CSV outputs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MM_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Read an evaluation-budget environment knob, falling back to `default`.
pub fn env_evals(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// A started wall clock: `start` it, do the work, read `elapsed_s`.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_roundtrip() {
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
        assert!(path.is_file());
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
    fn stopwatch_measures_elapsed_time() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        assert!(sw.elapsed_s() >= 0.0);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(fmt(0.0), "0");
        assert!(fmt(1234567.0).contains('e'));
        assert!(fmt(0.0001).contains('e'));
        assert_eq!(fmt(12.3456), "12.346");
    }
}
