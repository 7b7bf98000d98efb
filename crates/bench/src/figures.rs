//! One function per figure of the paper, plus the §4.3 DL-EM baseline and
//! the Appendix C k-sweep.

use crate::tables::Report;
use crate::{Config, Workbench};
use entmatcher_core::{
    Csls, Greedy, MatchContext, MatchPipeline, NoOp, ScoreOptimizer, SimilarityMetric, Sinkhorn,
};
use entmatcher_data::benchmarks;
use entmatcher_eval::report::{fmt3, fmt_gb, fmt_secs, TableBuilder};
use entmatcher_eval::{evaluate_links, EncoderKind, MatchTask};
use entmatcher_linalg::Matrix;
use entmatcher_support::json;

/// Computes the candidate-space cosine similarity matrix for one setting.
fn candidate_scores(
    wb: &mut Workbench,
    spec: &entmatcher_data::PairSpec,
    kind: EncoderKind,
) -> (MatchTask, Matrix, Matrix) {
    let (pair, emb) = wb.embeddings(spec, kind);
    let task = MatchTask::from_pair(pair);
    let (s, t) = task.candidate_embeddings(emb);
    (task, s, t)
}

/// Figure 4 — average standard deviation of each source entity's top-5
/// pairwise scores, per evaluation setting.
pub fn fig4(cfg: &Config, wb: &mut Workbench) -> Report {
    let mut t = TableBuilder::new(
        "Figure 4: average STD of top-5 pairwise similarity scores",
        &["Setting", "avg STD", "avg top-1 margin"],
    );
    let mut rows_json = Vec::new();
    let settings: Vec<(String, entmatcher_data::PairSpec, EncoderKind)> = vec![
        (
            "R-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "G-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Gcn,
        ),
        (
            "R-SRP(S-F)".into(),
            benchmarks::srprs("S-F", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "G-SRP(S-F)".into(),
            benchmarks::srprs("S-F", cfg.scale),
            EncoderKind::Gcn,
        ),
        (
            "N-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Name,
        ),
        (
            "NR-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::name_rrea_default(),
        ),
    ];
    for (name, spec, kind) in settings {
        let (_task, s, tt) = candidate_scores(wb, &spec, kind);
        let scores = entmatcher_core::similarity_matrix(&s, &tt, SimilarityMetric::Cosine);
        let std = entmatcher_eval::patterns::avg_top_k_std(&scores, 5);
        let margin = entmatcher_eval::patterns::avg_top1_margin(&scores);
        t.row(vec![
            name.clone(),
            format!("{std:.4}"),
            format!("{margin:.4}"),
        ]);
        rows_json.push(json!({ "setting": name, "top5_std": std, "top1_margin": margin }));
    }
    Report::from_tables("fig4", &[t], json!({ "rows": rows_json }))
}

/// Figure 5 — time and memory comparison of the seven algorithms on the
/// medium-sized settings.
pub fn fig5(cfg: &Config, wb: &mut Workbench) -> Report {
    let settings: Vec<(String, entmatcher_data::PairSpec, EncoderKind)> = vec![
        (
            "R-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "G-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Gcn,
        ),
        (
            "R-SRP(S-F)".into(),
            benchmarks::srprs("S-F", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "N-DBP(D-Z)".into(),
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Name,
        ),
    ];
    let presets = entmatcher_core::AlgorithmPreset::main_seven();
    let mut time_t = TableBuilder::new(
        "Figure 5a: time cost (seconds)",
        &["Algo", "R-DBP", "G-DBP", "R-SRP", "N-DBP"],
    );
    let mut mem_t = TableBuilder::new(
        "Figure 5b: peak auxiliary memory (GB)",
        &["Algo", "R-DBP", "G-DBP", "R-SRP", "N-DBP"],
    );
    let grid = entmatcher_eval::ExperimentGrid {
        pad_dummies: false,
        // Scalability sweeps take minutes; keep the console alive.
        progress: Some(std::time::Duration::from_secs(5)),
    };
    let mut per_setting = Vec::new();
    for (name, spec, kind) in &settings {
        let (pair, emb) = wb.embeddings(spec, *kind);
        let cells = grid.run_with_embeddings(pair, kind.prefix(), emb, &presets);
        per_setting.push((name.clone(), cells));
    }
    let mut rows_json = Vec::new();
    for (a, preset) in presets.iter().enumerate() {
        let times: Vec<String> = per_setting
            .iter()
            .map(|(_, cells)| fmt_secs(cells[a].elapsed))
            .collect();
        let mems: Vec<String> = per_setting
            .iter()
            .map(|(_, cells)| fmt_gb(cells[a].peak_aux_bytes))
            .collect();
        let mut trow = vec![preset.name().to_owned()];
        trow.extend(times.clone());
        time_t.row(trow);
        let mut mrow = vec![preset.name().to_owned()];
        mrow.extend(mems.clone());
        mem_t.row(mrow);
        rows_json.push(json!({ "algorithm": preset.name(), "seconds": times, "gb": mems }));
    }

    // Stage breakdown on the R-DBP setting: where each algorithm spends
    // its time (similarity is shared; the optimizer/matcher split is what
    // separates the two algorithm families).
    let mut stage_t = TableBuilder::new(
        "Figure 5c: per-stage time on R-DBP(D-Z) (seconds)",
        &["Algo", "Similarity", "Optimize", "Match"],
    );
    {
        let (name0, spec0, kind0) = &settings[0];
        let _ = name0;
        let (pair, emb) = wb.embeddings(spec0, *kind0);
        let task = entmatcher_eval::MatchTask::from_pair(pair);
        let (src, tgt) = task.candidate_embeddings(emb);
        let ctx = task.context(pair);
        for preset in presets {
            let r = preset.build().execute(&src, &tgt, &ctx);
            stage_t.row(vec![
                preset.name().to_owned(),
                fmt_secs(r.similarity_time),
                fmt_secs(r.optimize_time),
                fmt_secs(r.match_time),
            ]);
        }
    }
    Report::from_tables(
        "fig5",
        &[time_t, mem_t, stage_t],
        json!({ "rows": rows_json }),
    )
}

/// Sweeps one score optimizer's hyper-parameter, reporting F1 per value.
fn sweep_f1(
    wb: &mut Workbench,
    spec: &entmatcher_data::PairSpec,
    kind: EncoderKind,
    optimizers: Vec<(String, Box<dyn ScoreOptimizer>)>,
) -> Vec<(String, f64)> {
    let (pair, emb) = wb.embeddings(spec, kind);
    let task = MatchTask::from_pair(pair);
    let (s, t) = task.candidate_embeddings(emb);
    optimizers
        .into_iter()
        .map(|(label, opt)| {
            let pipeline = MatchPipeline::new(SimilarityMetric::Cosine, opt, Box::new(Greedy));
            let r = pipeline.execute(&s, &t, &MatchContext::default());
            let links = task.matching_to_links(&r.matching);
            (label, evaluate_links(&links, &task.gold).f1)
        })
        .collect()
}

/// Figure 6 — CSLS F1 as a function of k.
pub fn fig6(cfg: &Config, wb: &mut Workbench) -> Report {
    let ks = [1usize, 2, 5, 10, 20, 50];
    let mut t = TableBuilder::new(
        "Figure 6: CSLS F1 vs k",
        &["Setting", "k=1", "k=2", "k=5", "k=10", "k=20", "k=50"],
    );
    let mut rows_json = Vec::new();
    for (name, spec, kind) in [
        (
            "R-DBP(D-Z)",
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "G-DBP(D-Z)",
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Gcn,
        ),
        (
            "R-SRP(S-F)",
            benchmarks::srprs("S-F", cfg.scale),
            EncoderKind::Rrea,
        ),
    ] {
        let optimizers: Vec<(String, Box<dyn ScoreOptimizer>)> = ks
            .iter()
            .map(|&k| {
                (
                    format!("k={k}"),
                    Box::new(Csls { k }) as Box<dyn ScoreOptimizer>,
                )
            })
            .collect();
        let curve = sweep_f1(wb, &spec, kind, optimizers);
        let mut row = vec![name.to_owned()];
        row.extend(curve.iter().map(|(_, f1)| fmt3(*f1)));
        t.row(row);
        rows_json.push(json!({
            "setting": name,
            "k": ks,
            "f1": curve.iter().map(|(_, f)| *f).collect::<Vec<_>>(),
        }));
    }
    Report::from_tables("fig6", &[t], json!({ "rows": rows_json }))
}

/// Figure 7 — Sinkhorn F1 as a function of the iteration count l.
pub fn fig7(cfg: &Config, wb: &mut Workbench) -> Report {
    let ls = [1usize, 5, 10, 30, 100, 300];
    let mut t = TableBuilder::new(
        "Figure 7: Sinkhorn F1 vs l",
        &["Setting", "l=1", "l=5", "l=10", "l=30", "l=100", "l=300"],
    );
    let mut rows_json = Vec::new();
    for (name, spec, kind) in [
        (
            "R-DBP(D-Z)",
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Rrea,
        ),
        (
            "G-DBP(D-Z)",
            benchmarks::dbp15k("D-Z", cfg.scale),
            EncoderKind::Gcn,
        ),
    ] {
        let optimizers: Vec<(String, Box<dyn ScoreOptimizer>)> = ls
            .iter()
            .map(|&l| {
                (
                    format!("l={l}"),
                    Box::new(Sinkhorn {
                        iterations: l,
                        ..Default::default()
                    }) as Box<dyn ScoreOptimizer>,
                )
            })
            .collect();
        let curve = sweep_f1(wb, &spec, kind, optimizers);
        let mut row = vec![name.to_owned()];
        row.extend(curve.iter().map(|(_, f1)| fmt3(*f1)));
        t.row(row);
        rows_json.push(json!({
            "setting": name,
            "l": ls,
            "f1": curve.iter().map(|(_, f)| *f).collect::<Vec<_>>(),
        }));
    }
    Report::from_tables("fig7", &[t], json!({ "rows": rows_json }))
}

/// Appendix C — CSLS k under the non-1-to-1 setting, where k = 1 loses its
/// edge (the 1-to-1 assumption behind max-sharpening no longer holds).
pub fn appc(cfg: &Config, wb: &mut Workbench) -> Report {
    let ks = [1usize, 2, 5, 10, 20];
    let mut t = TableBuilder::new(
        "Appendix C: CSLS F1 vs k on FB_DBP_MUL (non 1-to-1)",
        &["Setting", "k=1", "k=2", "k=5", "k=10", "k=20"],
    );
    let spec = benchmarks::fb_dbp_mul(cfg.scale);
    let mut rows_json = Vec::new();
    for (name, kind) in [("GCN", EncoderKind::Gcn), ("RREA", EncoderKind::Rrea)] {
        let optimizers: Vec<(String, Box<dyn ScoreOptimizer>)> = ks
            .iter()
            .map(|&k| {
                (
                    format!("k={k}"),
                    Box::new(Csls { k }) as Box<dyn ScoreOptimizer>,
                )
            })
            .collect();
        let curve = sweep_f1(wb, &spec, kind, optimizers);
        let mut row = vec![name.to_owned()];
        row.extend(curve.iter().map(|(_, f1)| fmt3(*f1)));
        t.row(row);
        rows_json.push(json!({
            "setting": name,
            "k": ks,
            "f1": curve.iter().map(|(_, f)| *f).collect::<Vec<_>>(),
        }));
    }
    Report::from_tables("appc", &[t], json!({ "rows": rows_json }))
}

/// §4.3 — the deepmatcher-style DL-EM baseline: train an MLP pair
/// classifier on seed links, align by classifier argmax, and watch it
/// collapse next to DInf.
pub fn dlem(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let mut t = TableBuilder::new(
        "DL-based EM baseline on D-Z (paper 4.3)",
        &["Embeddings", "DL-EM F1", "DInf F1"],
    );
    let mut rows_json = Vec::new();
    for (name, kind) in [("GCN", EncoderKind::Gcn), ("Name", EncoderKind::Name)] {
        let (pair, emb) = wb.embeddings(&spec, kind);
        let task = MatchTask::from_pair(pair);
        let model = entmatcher_embed::mlp::train_pair_classifier(
            emb,
            pair.train_links(),
            &entmatcher_embed::mlp::MlpConfig::default(),
        );
        let (s, tt) = task.candidate_embeddings(emb);
        // Classifier argmax per source candidate.
        let assignment: Vec<Option<u32>> = (0..s.rows())
            .map(|i| {
                let mut best = (None, f32::NEG_INFINITY);
                for j in 0..tt.rows() {
                    let p = model.score(s.row(i), tt.row(j));
                    if p > best.1 {
                        best = (Some(j as u32), p);
                    }
                }
                best.0
            })
            .collect();
        let links = task.matching_to_links(&entmatcher_core::Matching::new(assignment));
        let dl_f1 = evaluate_links(&links, &task.gold).f1;
        // DInf on the same embeddings.
        let dinf = MatchPipeline::new(SimilarityMetric::Cosine, Box::new(NoOp), Box::new(Greedy));
        let r = dinf.execute(&s, &tt, &MatchContext::default());
        let dinf_f1 = evaluate_links(&task.matching_to_links(&r.matching), &task.gold).f1;
        t.row(vec![name.into(), fmt3(dl_f1), fmt3(dinf_f1)]);
        rows_json.push(json!({ "embeddings": name, "dl_em_f1": dl_f1, "dinf_f1": dinf_f1 }));
    }
    Report::from_tables("dlem", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.02,
            dwy_scale: 0.002,
            ..Default::default()
        }
    }

    #[test]
    fn fig4_produces_positive_stds() {
        let mut wb = Workbench::new();
        let r = fig4(&tiny_cfg(), &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        assert_eq!(rows.len(), 6);
        for row in rows {
            assert!(row["top5_std"].as_f64().unwrap() >= 0.0);
        }
    }

    #[test]
    fn fig7_more_iterations_do_not_hurt_much() {
        let mut wb = Workbench::new();
        let r = fig7(&tiny_cfg(), &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        for row in rows {
            let f1 = row["f1"].as_array().unwrap();
            let first = f1[0].as_f64().unwrap();
            let last = f1[f1.len() - 1].as_f64().unwrap();
            assert!(
                last >= first - 0.05,
                "convergence should not collapse: {first} -> {last}"
            );
        }
    }
}
