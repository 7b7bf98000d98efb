//! Reproduction driver: regenerates any table or figure of the paper.
//!
//! ```text
//! repro <id>... [--scale S] [--dwy-scale S] [--out DIR]
//!
//! ids: table2 table3 table4 table5 table6 table7 table8
//!      fig4 fig5 fig6 fig7 dlem appc all
//! ```
//!
//! Each run prints the measured tables (side by side with the paper's
//! published numbers where applicable) and dumps raw JSON under `--out`.
//! `repro all` additionally writes `EXPERIMENTS.md` at the workspace root.

use entmatcher_bench::tables::Report;
use entmatcher_bench::{extensions, figures, tables, Config, Workbench};
use std::io::Write;

const ALL_IDS: [&str; 24] = [
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "dlem",
    "appc",
    "appd",
    "ext-multi",
    "ext-stream",
    "ext-seed",
    "ext-block",
    "ext-sig",
    "ext-hetero",
    "ext-dim",
    "ext-metric",
    "enc",
    "geom",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, ids) = Config::from_args(&args);
    if ids.is_empty() {
        eprintln!("usage: repro <id>... [--scale S] [--dwy-scale S] [--out DIR]");
        eprintln!("ids: {} all", ALL_IDS.join(" "));
        std::process::exit(2);
    }
    let run_all = ids.iter().any(|i| i == "all");
    let selected: Vec<&str> = if run_all {
        ALL_IDS.to_vec()
    } else {
        ids.iter().map(String::as_str).collect()
    };
    std::fs::create_dir_all(&cfg.out_dir).expect("create output directory");
    let mut wb = Workbench::new();
    let mut reports = Vec::new();
    for id in selected {
        let start = std::time::Instant::now();
        eprintln!(
            ">> running {id} (scale={}, dwy-scale={})",
            cfg.scale, cfg.dwy_scale
        );
        let report = run_one(id, &cfg, &mut wb);
        println!("{}", report.text);
        let path = cfg.out_dir.join(format!("{id}.json"));
        std::fs::write(
            &path,
            entmatcher_support::json::to_string_pretty(&report.json),
        )
        .expect("write json");
        eprintln!(
            "<< {id} done in {:.1}s -> {}",
            start.elapsed().as_secs_f64(),
            path.display()
        );
        reports.push(report);
        // Large embedding caches are only reusable within one experiment
        // family; keep the resident set bounded on `all` runs.
        if run_all {
            wb.drop_embeddings();
        }
    }
    if run_all {
        write_experiments_md(&cfg, &reports).expect("write EXPERIMENTS.md");
        eprintln!("wrote EXPERIMENTS.md");
    }
}

fn run_one(id: &str, cfg: &Config, wb: &mut Workbench) -> Report {
    match id {
        "table2" => tables::table2(cfg),
        "table3" => tables::table3(cfg, wb),
        "table4" => tables::table4(cfg, wb),
        "table5" => tables::table5(cfg, wb),
        "table6" => tables::table6(cfg, wb),
        "table7" => tables::table7(cfg, wb),
        "table8" => tables::table8(cfg, wb),
        "fig4" => figures::fig4(cfg, wb),
        "fig5" => figures::fig5(cfg, wb),
        "fig6" => figures::fig6(cfg, wb),
        "fig7" => figures::fig7(cfg, wb),
        "dlem" => figures::dlem(cfg, wb),
        "appc" => figures::appc(cfg, wb),
        "appd" => extensions::appd(cfg, wb),
        "ext-multi" => extensions::ext_multi(cfg, wb),
        "ext-stream" => extensions::ext_stream(cfg, wb),
        "ext-seed" => extensions::ext_seed(cfg, wb),
        "ext-block" => extensions::ext_block(cfg, wb),
        "ext-sig" => extensions::ext_sig(cfg, wb),
        "ext-hetero" => extensions::ext_hetero(cfg, wb),
        "ext-dim" => extensions::ext_dim(cfg, wb),
        "ext-metric" => extensions::ext_metric(cfg, wb),
        "enc" => extensions::enc(cfg, wb),
        "geom" => extensions::geom(cfg, wb),
        other => {
            eprintln!(
                "unknown experiment id {other:?}; known: {}",
                ALL_IDS.join(" ")
            );
            std::process::exit(2);
        }
    }
}

fn write_experiments_md(cfg: &Config, reports: &[Report]) -> std::io::Result<()> {
    let mut f = std::fs::File::create("EXPERIMENTS.md")?;
    writeln!(f, "# EXPERIMENTS — paper vs. measured")?;
    writeln!(f)?;
    writeln!(
        f,
        "Generated by `cargo run -p entmatcher-bench --release --bin repro -- all \
         --scale {} --dwy-scale {}`.",
        cfg.scale, cfg.dwy_scale
    )?;
    writeln!(f)?;
    writeln!(f, "{}", PREAMBLE)?;
    for r in reports {
        writeln!(f, "\n## {}\n", r.id)?;
        writeln!(f, "{}", r.markdown)?;
        if let Some(note) = shape_note(&r.id) {
            writeln!(f, "{note}")?;
        }
    }
    Ok(())
}

const PREAMBLE: &str = "\
Datasets are synthetic analogues of the paper's benchmarks (see
`DESIGN.md` §3) run at a reduced scale, and the encoders are pure-Rust
propagation models rather than GPU-trained networks — so absolute numbers
are not expected to match. What is expected to match, and is checked by
the integration test suite, is the *shape* of every result: which
algorithm family wins in each setting, the direction of every gap, and
where the crossovers fall. Paper columns in the tables below are the
published values transcribed in `crates/bench/src/paper.rs`.";

fn shape_note(id: &str) -> Option<&'static str> {
    match id {
        "table4" => Some(
            "**Shape check:** DInf is the weakest algorithm in every column; \
             Sink./Hun. lead the R- blocks; CSLS/RInf sit between DInf and the \
             assignment methods; all methods score higher with RREA than with \
             GCN, and higher on DBP15K than on the sparser SRPRS (Pattern 2: \
             the Sink./Hun. margin narrows on SRPRS).",
        ),
        "table5" => Some(
            "**Shape check:** name embeddings alone already beat structure-only \
             settings; fusing names with RREA structure lifts every algorithm \
             further; with the sharper score distributions, the global-constraint \
             methods (Hun./SMat) close the gap on the score-optimizer family \
             (Pattern 1).",
        ),
        "table6" => Some(
            "**Shape check:** the advanced algorithms beat DInf by large \
             margins while the heavy ones (Hun., Sink.) dominate the time \
             column; RInf-wr/RInf-pb match full RInf's F1 within noise at a \
             fraction of its time. Two honest deviations: our in-place \
             Sinkhorn, O(n)-memory Hungarian (shortest augmenting paths with \
             Jonker–Volgenant's lazy Dijkstra, without JV's initialization \
             phases, whose augmenting row reduction alone took 23–42 times \
             as long as the whole solve on 1575-candidate SRPRS-like pairs), \
             one-rank-matrix full RInf and lazy-list SMat fit the \
             full-scale memory budget where the paper's implementations did \
             not (its \"No\"/\"/\" verdicts), and on these synthetic \
             embeddings the wr variant loses no measurable F1 (the paper \
             found a small drop).",
        ),
        "table7" => Some(
            "**Shape check:** every F1 drops versus Table 4 (greedy methods pay \
             precision for matching unmatchable sources); Hun. with dummy-node \
             padding takes the best column scores; Sink. loses its Table 4 \
             parity with Hun. because it still matches every source.",
        ),
        "table8" => Some(
            "**Shape check:** all scores collapse versus the 1-to-1 setting; \
             the score-optimizer family (CSLS/RInf, with Sink. within noise \
             of them) takes the best F1 while the hard 1-to-1 matchers \
             (Hun./SMat) lose their Table 4 lead — recall shows the \
             constraint's cost directly — and RL/SMat sit at the bottom: \
             the paper's finding that no existing algorithm handles \
             non-1-to-1 alignment.",
        ),
        "fig6" => Some(
            "**Shape check:** smaller k is better under the 1-to-1 setting \
             (k = 1 or 2 peaks the curve), larger k flattens the correction.",
        ),
        "fig7" => Some(
            "**Shape check:** F1 settles within ten rounds: from l = 10 on, every \
             row stays within 0.001. Before that, RREA rises slightly and GCN falls \
             from l = 1, where the paper's Fig. 7 rises in every setting (DESIGN.md §9, item 7).",
        ),
        "dlem" => Some(
            "**Shape check:** the classifier-style EM baseline collapses next \
             to plain DInf on the same embeddings (paper §4.3: \"only several \
             entities are correctly aligned\").",
        ),
        "ext-multi" => Some(
            "**Extension (paper future direction 5):** multi-assignment \
             matchers lift the recall ceiling that single-prediction \
             algorithms hit on non-1-to-1 gold links.",
        ),
        "ext-stream" => Some(
            "**Extension (paper future direction 4):** streaming DInf/CSLS \
             make bit-identical decisions to the dense pipelines with O(n) \
             rather than O(n^2) memory.",
        ),
        "geom" => Some(
            "**Diagnostics (paper §3.3):** the raw embedding space exhibits \
             hubness (positive k-occurrence skew) and isolation; CSLS/RInf/ \
             Sinkhorn all reduce both, which is exactly why they beat DInf.",
        ),
        _ => None,
    }
}
