//! Span-recording stand-ins for the layer seams the repository exposes
//! publicly: the timing backend, the program source and the compiler's
//! span recorder. Each one
//! delegates to the real implementation and only adds a span around
//! the call, so traced and untraced runs produce identical outputs.

use crate::trace::Tracer;
use dtu_compiler::{CompilerConfig, Placement};
use dtu_graph::Graph;
use dtu_harness::SessionCache;
use dtu_serve::{ProgramSource, ServeError};
use dtu_sim::{Chip, ChipConfig, Program, RunReport, SimError, TimingBackend};
use dtu_telemetry::{Recorder, Span};

/// Where a hook's spans go: the tracer, their parent span and the
/// iteration they belong to.
#[derive(Debug, Clone, Copy)]
pub struct Site<'t> {
    /// The span store.
    pub tracer: &'t Tracer,
    /// The span that causes the hooked calls.
    pub parent: Option<u64>,
    /// Iteration id (0 for probes).
    pub iter: u32,
}

impl<'t> Site<'t> {
    /// The same tracer and iteration under another parent span.
    pub fn under(self, parent: u64) -> Site<'t> {
        Site {
            parent: Some(parent),
            ..self
        }
    }

    /// Runs `f` in a span named `name` at this site.
    pub fn span<R>(self, name: &'static str, f: impl FnOnce(u64) -> R) -> R {
        self.tracer.span(name, self.parent, self.iter, f)
    }
}

/// The interpreter behind the [`TimingBackend`] seam, with one
/// `sim.walk` span per `Chip::run` carrying the program's command count.
#[derive(Debug, Clone, Copy)]
pub struct TracedWalk<'t>(pub Site<'t>);

impl TimingBackend for TracedWalk<'_> {
    fn name(&self) -> &'static str {
        "interpreted"
    }

    fn run(&self, chip: &Chip, program: &Program) -> Result<RunReport, SimError> {
        let open = self.0.tracer.open("sim.walk", self.0.parent, self.0.iter);
        let report = chip.run(program);
        self.0.tracer.close(open, program.total_commands() as u64);
        report
    }
}

/// The session cache behind the [`ProgramSource`] seam, with one
/// `cache.lookup` span per lookup (a memory hit includes the program
/// clone the source hands out).
#[derive(Debug, Clone, Copy)]
pub struct TracedSource<'t> {
    /// The real cache.
    pub cache: &'t SessionCache,
    /// Where the spans go.
    pub site: Site<'t>,
}

impl ProgramSource for TracedSource<'_> {
    fn compiled_program(
        &self,
        graph: &Graph,
        chip: &ChipConfig,
        placement: &Placement,
        compiler: &CompilerConfig,
        batch: usize,
    ) -> Result<(Program, bool), ServeError> {
        self.site.span("cache.lookup", |_| {
            self.cache
                .compiled_program(graph, chip, placement, compiler, batch)
        })
    }
}

/// Collects the phase spans `dtu_compiler::compile_recorded` emits
/// (host ns relative to the start of the compile).
#[derive(Debug, Default)]
pub struct Phases(pub Vec<(&'static str, f64, f64)>);

impl Recorder for Phases {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, span: Span) {
        let name = match span.label.as_str() {
            "optimize" => "compiler.optimize",
            "infer-shapes" => "compiler.infer_shapes",
            "fuse" => "compiler.fuse",
            "lower" => "compiler.lower",
            "emit-streams" => "compiler.emit",
            _ => "compiler.other",
        };
        self.0.push((name, span.start_ns, span.end_ns));
    }
}

impl Phases {
    /// Re-records the phases as children of `site`'s parent, shifting
    /// them onto the tracer clock from `base_ns`.
    pub fn emit(self, site: Site<'_>, base_ns: u64) {
        for (name, start, end) in self.0 {
            site.tracer.record(
                name,
                site.parent,
                site.iter,
                base_ns + start as u64,
                base_ns + end as u64,
            );
        }
    }
}
