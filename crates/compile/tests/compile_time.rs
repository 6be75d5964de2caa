//! `CompileStats::compile_time` covers the whole compilation.
//!
//! `sekitei compile` prints `compile_time` while `--profile` reads the
//! `compile` span and its phase children, so the stat must span every
//! phase, the symmetry pass included. This file holds one test: tracing
//! state is process-global, and no other compile may add spans to the
//! drained trace.

use sekitei_compile::compile;
use sekitei_model::LevelScenario;
use sekitei_topology::scenarios;

#[test]
fn compile_time_covers_every_phase_span() {
    let problem = scenarios::large(LevelScenario::E);
    sekitei_obs::enable();
    let _ = sekitei_obs::take_trace();
    let task = compile(&problem).unwrap();
    let trace = sekitei_obs::take_trace();
    sekitei_obs::disable();

    let phases = ["ground-place", "ground-cross", "finalize", "symmetry"];
    for name in phases {
        assert_eq!(trace.span_count(name), 1, "one `{name}` span");
    }
    let sum: u64 = phases.iter().map(|name| trace.span_total_ns(name)).sum();
    let stat = task.stats.compile_time.as_nanos() as u64;
    assert!(stat >= sum, "compile_time {stat} ns < phase spans {sum} ns");
}
