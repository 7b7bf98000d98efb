//! `entmatcher generate` against the real binary. Each test spawns a child
//! process, so the global telemetry switch that every in-process `run`
//! saves and restores never races with other tests.

use std::path::Path;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_entmatcher");

fn generate(seed: &str, out: &Path) -> String {
    let output = Command::new(BIN)
        .args([
            "generate", "--preset", "S-W", "--scale", "0.02", "--seed", seed,
        ])
        .arg("--out")
        .arg(out)
        .output()
        .expect("run entmatcher generate");
    assert!(output.status.success(), "{output:?}");
    std::fs::read_to_string(out.join("spec.json")).expect("spec.json written")
}

#[test]
fn generate_keeps_a_seed_above_2_53_exactly() {
    // 2^53 + 1 has no f64 image; through f64 its spec.json read 2^53, and
    // every later command split the pair with that seed.
    let root = std::env::temp_dir().join(format!("entmatcher-big-seed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut specs = Vec::new();
    for seed in ["9007199254740993", "9007199254740992"] {
        let text = generate(seed, &root.join(seed));
        assert!(text.contains(&format!("\"seed\": {seed}")), "{text}");
        let spec: entmatcher_data::PairSpec = entmatcher_support::json::from_str(&text).unwrap();
        assert_eq!(spec.seed.to_string(), seed);
        specs.push(text);
    }
    assert_ne!(specs[0], specs[1]);
    std::fs::remove_dir_all(&root).unwrap();
}
