//! Shared output vocabulary for the paper-figure binaries.
//!
//! Column headers and progress lines that several binaries emit live here
//! once, so the copies cannot drift apart (the `dup-literal` rule in mm-lint
//! enforces this).

/// CSV column name for the best normalized EDP a search found.
pub const BEST_NORMALIZED_EDP_COLUMN: &str = "search_best_normalized_edp";

/// Human table header for the same quantity.
pub const BEST_NORMALIZED_EDP_LABEL: &str = "best EDP found (normalized)";

/// Summary-CSV header for the per-problem method roll-up.
pub const METHODS_SUMMARY_COLUMN: &str = "methods (best normalized EDP)";

/// Progress line printed before training the CNN-Layer surrogate.
pub const TRAINING_CNN_SURROGATE: &str = "training CNN-Layer surrogate…";

/// Progress line printed before training the MTTKRP surrogate.
pub const TRAINING_MTTKRP_SURROGATE: &str = "training MTTKRP surrogate…";

/// Print the headline Mind-Mappings-to-algorithmic-minimum distance next to
/// the paper's reported value (Table 3: 5.32x).
pub fn print_mm_distance_to_minimum(formatted_geomean: &str) {
    println!("  MM distance to algorithmic minimum: {formatted_geomean}x   (paper: 5.32x)");
}
