//! Stable content fingerprints for compiled sessions.
//!
//! The harness cache (`dtu-harness`) keys compiled programs by *what
//! produced them*: the graph, the chip configuration, the placement,
//! the compiler configuration, the batch, and the compiler version.
//! The fingerprint must be identical across processes and runs (so an
//! on-disk cache entry written yesterday still matches today) and must
//! change whenever any ingredient changes (so a stale artifact can
//! never be replayed against a different configuration).
//!
//! The hash is 64-bit FNV-1a over the `Debug` rendering of each
//! ingredient. Every hashed type derives `Debug` structurally — the
//! rendering is a pure function of the value with no addresses,
//! pointers, or iteration-order dependence — which makes it a cheap,
//! dependency-free canonical form. `COMPILER_VERSION` is mixed in so
//! that lowering changes invalidate old artifacts wholesale.

use crate::{CompilerConfig, Placement};
use dtu_graph::Graph;
use dtu_sim::ChipConfig;

/// Version tag of the lowering pipeline, mixed into every fingerprint.
///
/// Bump this whenever `compile` could emit a different program for the
/// same inputs — all previously cached artifacts then miss and are
/// recompiled, which is always safe.
pub const COMPILER_VERSION: u32 = 1;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hasher over byte strings.
///
/// Used by the fingerprint functions below and exposed so callers can
/// fold extra discriminants (e.g. a workload label) into a key of
/// their own without inventing a second hash scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A hasher at the standard FNV offset basis.
    pub fn new() -> Self {
        Fnv1a::default()
    }

    /// Folds raw bytes into the state.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds a string (by UTF-8 bytes) into the state.
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
    }

    /// Folds a `u64` (little-endian bytes) into the state.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds any `Debug` value via its structural rendering, chunk by
    /// chunk as the formatter produces it (no intermediate `String`).
    pub fn write_debug(&mut self, v: &dyn std::fmt::Debug) {
        use std::fmt::Write as _;
        write!(DebugSink(self), "{v:?}").expect("hashing cannot fail");
    }

    /// The current 64-bit hash value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Folds formatter output straight into an [`Fnv1a`] state.
struct DebugSink<'a>(&'a mut Fnv1a);

impl std::fmt::Write for DebugSink<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.write_str(s);
        Ok(())
    }
}

/// Fingerprint of a graph alone (structure, shapes, dtypes, names).
pub fn graph_fingerprint(graph: &Graph) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("graph/");
    h.write_debug(graph);
    h.finish()
}

/// Fingerprint of one compiled-session identity.
///
/// Two sessions share a fingerprint exactly when [`compile`] would
/// produce the same program for both: same graph content, chip
/// configuration, placement, compiler configuration, batch, and
/// [`COMPILER_VERSION`]. This is the cache key used by
/// `dtu-harness`'s compiled-session cache (memory and disk tiers).
///
/// [`compile`]: crate::compile
pub fn session_fingerprint(
    graph: &Graph,
    chip: &ChipConfig,
    placement: &Placement,
    compiler: &CompilerConfig,
    batch: usize,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_str("session/v");
    h.write_u64(u64::from(COMPILER_VERSION));
    h.write_u64(graph_fingerprint(graph));
    h.write_str("/chip/");
    h.write_debug(chip);
    h.write_str("/placement/");
    h.write_debug(placement);
    h.write_str("/compiler/");
    h.write_debug(compiler);
    h.write_str("/batch/");
    h.write_u64(batch as u64);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtu_graph::{Op, TensorType};

    fn toy(batch: usize) -> Graph {
        let mut g = Graph::new("toy");
        let x = g.input("x", TensorType::fixed(&[batch, 8, 32, 32]));
        let c = g.add_node(Op::conv2d(16, 3, 1, 1), vec![x]).unwrap();
        g.mark_output(c);
        g
    }

    #[test]
    fn fingerprint_is_stable_for_equal_inputs() {
        let chip = ChipConfig::dtu20();
        let p = Placement::full_chip(&chip);
        let cfg = CompilerConfig::for_chip(&chip);
        let a = session_fingerprint(&toy(1), &chip, &p, &cfg, 1);
        let b = session_fingerprint(&toy(1), &chip, &p, &cfg, 1);
        assert_eq!(a, b);
    }

    #[test]
    fn fingerprint_changes_with_each_ingredient() {
        let chip = ChipConfig::dtu20();
        let p = Placement::full_chip(&chip);
        let cfg = CompilerConfig::for_chip(&chip);
        let base = session_fingerprint(&toy(1), &chip, &p, &cfg, 1);
        // Graph change.
        assert_ne!(base, session_fingerprint(&toy(2), &chip, &p, &cfg, 1));
        // Chip change.
        let i10 = ChipConfig::dtu10();
        assert_ne!(base, session_fingerprint(&toy(1), &i10, &p, &cfg, 1));
        // Placement change.
        let p1 = Placement::cluster_groups(0, 1, &chip);
        assert_ne!(base, session_fingerprint(&toy(1), &chip, &p1, &cfg, 1));
        // Batch change.
        assert_ne!(base, session_fingerprint(&toy(1), &chip, &p, &cfg, 2));
    }

    #[test]
    fn toy_session_fingerprint_is_pinned() {
        // Cache keys and artifact file names derive from this value; a
        // change to how ingredients are hashed must not move it.
        let chip = ChipConfig::dtu20();
        let p = Placement::full_chip(&chip);
        let cfg = CompilerConfig::for_chip(&chip);
        let key = session_fingerprint(&toy(1), &chip, &p, &cfg, 1);
        assert_eq!(key, 0x4dd7_973d_8ccf_2e8d);
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("a") = 0xaf63dc4c8601ec8c.
        let mut h = Fnv1a::new();
        h.write_str("a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
