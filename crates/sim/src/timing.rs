//! The timing seam: "run a [`Program`], produce a [`RunReport`]".
//!
//! The simulator has one timing model, the interpreter behind
//! [`Chip::run`]. [`TimingBackend`] is the seam callers plug a wrapper
//! into — e.g. a span-recording walk that delegates to [`Chip::run`] —
//! without changing what gets priced.

use crate::chip::{Chip, SimError};
use crate::program::Program;
use crate::report::RunReport;

/// A timing backend: something that can execute a [`Program`] on a
/// [`Chip`] and produce a [`RunReport`].
pub trait TimingBackend {
    /// Short stable name (e.g. "interpreted") for reports.
    fn name(&self) -> &'static str;

    /// Runs `program` on `chip`.
    ///
    /// # Errors
    ///
    /// As for [`Chip::run`].
    fn run(&self, chip: &Chip, program: &Program) -> Result<RunReport, SimError>;
}
