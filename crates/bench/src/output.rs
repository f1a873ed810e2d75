//! Shared output vocabulary for the paper-figure binaries.
//!
//! Column headers that several binaries emit live here once, so the copies
//! cannot drift apart (the `dup-literal` rule in mm-lint enforces this).

/// CSV column name for the best normalized EDP a search found.
pub const BEST_NORMALIZED_EDP_COLUMN: &str = "search_best_normalized_edp";

/// Human table header for the same quantity.
pub const BEST_NORMALIZED_EDP_LABEL: &str = "best EDP found (normalized)";
