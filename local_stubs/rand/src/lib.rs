//! Offline stand-in for `rand`. No crate depends on it; it stays because
//! the benchmark package's `[patch.crates-io]` table names it.
