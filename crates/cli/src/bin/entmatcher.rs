//! The `entmatcher` command-line binary (see the crate docs for usage).

use entmatcher_support::env;

// The counting allocator backs `ENTMATCHER_MEM=1` and `--mem-profile`.
// When neither is active it forwards straight to the system allocator
// after one relaxed atomic load, so plain runs pay nothing measurable.
#[global_allocator]
static ALLOCATOR: entmatcher_support::alloc::CountingAlloc =
    entmatcher_support::alloc::CountingAlloc;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = entmatcher_cli::run(&argv);
    dump_env_switches();
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// With `ENTMATCHER_ENV_DUMP=1`, prints every recognized `ENTMATCHER_*`
/// switch and its effective state to stderr at exit — the debugging aid
/// for "why did this run behave as if X were (not) set". The shared
/// convention, applied here and by every reader through
/// [`env::switch`]: unset, empty, whitespace-only, and `0` all mean
/// *disabled*.
fn dump_env_switches() {
    if env::switch("ENTMATCHER_ENV_DUMP").is_none() {
        return;
    }
    const SWITCHES: &[(&str, &str)] = &[
        ("ENTMATCHER_TRACE", "record telemetry; a path exports it there"),
        ("ENTMATCHER_TRACE_FORMAT", "trace export format (chrome|native)"),
        ("ENTMATCHER_METRICS_ADDR", "serve /metrics on this address"),
        ("ENTMATCHER_METRICS_LINGER_MS", "keep /metrics up after the command"),
        ("ENTMATCHER_MEM", "counting allocator + measured heap spans"),
        ("ENTMATCHER_SLOW_MS", "serve: slow-query log threshold (ms)"),
        ("ENTMATCHER_THREADS", "worker-pool size override"),
        ("ENTMATCHER_SIMD", "SIMD kernel dispatch (off disables)"),
        ("ENTMATCHER_ENV_DUMP", "this dump"),
    ];
    eprintln!("env: recognized switches (unset / empty / blank / 0 = disabled):");
    for (name, what) in SWITCHES {
        let state = match std::env::var(name) {
            Ok(v) if env::switch_value(Some(&v)).is_none() => format!("{v:?} (disabled)"),
            Ok(v) => format!("{v:?}"),
            Err(_) => "<unset> (disabled)".to_owned(),
        };
        eprintln!("env:   {name}={state}  -- {what}");
    }
}
