//! Extension experiments beyond the paper's tables: its Appendix D case
//! study, its stated future directions implemented and measured, and an
//! encoder comparison including the TransE substrate.

use crate::tables::Report;
use crate::{Config, Workbench};
use entmatcher_core::streaming::{
    streaming_aux_bytes, streaming_csls, streaming_greedy, DEFAULT_BLOCK,
};
use entmatcher_core::{
    similarity_matrix, AlgorithmPreset, Csls, Greedy, MatchContext, MatchPipeline,
    ProbabilisticMatcher, ScoreOptimizer, SimilarityMetric, Sinkhorn, ThresholdMatcher,
};
use entmatcher_data::benchmarks;
use entmatcher_embed::{Encoder, TransEEncoder};
use entmatcher_eval::geometry::geometry_report;
use entmatcher_eval::ranking::ranking_report;
use entmatcher_eval::report::{fmt3, fmt_gb, TableBuilder};
use entmatcher_eval::{evaluate_links, EncoderKind, MatchTask};
use entmatcher_graph::Link;
use entmatcher_support::json;
use entmatcher_support::json::Json;

/// Appendix D — case study: entities where RInf (and Hungarian) correct
/// DInf's greedy mistakes, rendered with names and raw scores.
pub fn appd(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Rrea);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
    let ctx = MatchContext::default();
    let dinf = AlgorithmPreset::DInf
        .build()
        .execute(&src, &tgt, &ctx)
        .matching;
    let mut tables = Vec::new();
    let mut blocks = json::Map::new();
    for better in [AlgorithmPreset::RInf, AlgorithmPreset::Hungarian] {
        let improved = better.build().execute(&src, &tgt, &ctx).matching;
        let cases =
            entmatcher_eval::casestudy::find_corrections(pair, &task, &raw, &dinf, &improved, 5);
        let mut t = TableBuilder::new(
            format!(
                "Appendix D: {} corrections of DInf on D-Z (RREA)",
                better.name()
            ),
            &[
                "Source",
                "DInf pick",
                "DInf sim",
                "Corrected pick",
                "Gold sim",
            ],
        );
        for c in &cases {
            t.row(vec![
                c.source.clone(),
                c.baseline_pick.clone(),
                format!("{:.3}", c.baseline_score),
                c.improved_pick.clone(),
                format!("{:.3}", c.improved_score),
            ]);
        }
        blocks.insert(
            better.name().to_owned(),
            json::to_value(&cases),
        );
        tables.push(t);
    }
    Report::from_tables("appd", &tables, Json::Obj(blocks))
}

/// Future direction 5 — multi-assignment matching on the non-1-to-1
/// benchmark: threshold and probabilistic matchers recover the recall that
/// single-prediction algorithms structurally cannot reach.
pub fn ext_multi(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::fb_dbp_mul(cfg.scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Rrea);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = MatchContext::default();
    let mut t = TableBuilder::new(
        "Extension (paper direction 5): multi-assignment on FB_DBP_MUL (RREA)",
        &["Method", "P", "R", "F1", "#pred"],
    );
    let mut rows_json = Vec::new();
    let mut push = |name: &str, links: Vec<Link>, t: &mut TableBuilder| {
        let s = evaluate_links(&links, &task.gold);
        t.row(vec![
            name.into(),
            fmt3(s.precision),
            fmt3(s.recall),
            fmt3(s.f1),
            s.predicted.to_string(),
        ]);
        rows_json.push(json!({
            "method": name, "precision": s.precision, "recall": s.recall,
            "f1": s.f1, "predicted": s.predicted,
        }));
    };
    // Single-prediction baselines.
    for preset in [
        AlgorithmPreset::DInf,
        AlgorithmPreset::Csls,
        AlgorithmPreset::RInf,
    ] {
        let m = preset.build().execute(&src, &tgt, &ctx).matching;
        push(preset.name(), task.matching_to_links(&m), &mut t);
    }
    // Multi-assignment extensions. The threshold matcher runs on
    // CSLS-corrected scores (the best single-prediction base).
    let scores = Csls::default().apply(similarity_matrix(&src, &tgt, SimilarityMetric::Cosine));
    let multi = ThresholdMatcher::default().run_multi(&scores);
    let links: Vec<Link> = multi
        .pairs()
        .map(|(i, j)| Link::new(task.source_candidates[i], task.target_candidates[j]))
        .collect();
    push("Threshold(CSLS)", links, &mut t);
    let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
    let prob = ProbabilisticMatcher::default().run_multi(&raw);
    let links: Vec<Link> = prob
        .pairs()
        .map(|(i, j)| Link::new(task.source_candidates[i], task.target_candidates[j]))
        .collect();
    push("Probabilistic", links, &mut t);
    Report::from_tables("ext-multi", &[t], json!({ "rows": rows_json }))
}

/// Future direction 4 — streaming matching: identical decisions to the
/// dense DInf/CSLS pipelines at a fraction of the memory.
pub fn ext_stream(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dwy100k("D-W", cfg.dwy_scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Gcn);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = MatchContext::default();
    let n = src.rows();
    let mut t = TableBuilder::new(
        format!("Extension (paper direction 4): streaming matching on D-W ({n} candidates)"),
        &["Method", "F1", "T(s)", "MemGB", "DecisionsMatchDense"],
    );
    let mut rows_json = Vec::new();

    // Dense baselines.
    let dense_dinf = AlgorithmPreset::DInf.build().execute(&src, &tgt, &ctx);
    let dense_csls = AlgorithmPreset::Csls.build().execute(&src, &tgt, &ctx);
    for (name, r) in [("DInf (dense)", &dense_dinf), ("CSLS (dense)", &dense_csls)] {
        let f1 = evaluate_links(&task.matching_to_links(&r.matching), &task.gold).f1;
        t.row(vec![
            name.into(),
            fmt3(f1),
            format!("{:.2}", r.elapsed.as_secs_f64()),
            fmt_gb(r.peak_aux_bytes),
            "-".into(),
        ]);
        rows_json.push(json!({ "method": name, "f1": f1, "bytes": r.peak_aux_bytes }));
    }
    // Streaming variants.
    let start = std::time::Instant::now();
    let sg = streaming_greedy(&src, &tgt, SimilarityMetric::Cosine, DEFAULT_BLOCK);
    let sg_t = start.elapsed();
    let start = std::time::Instant::now();
    let sc = streaming_csls(&src, &tgt, SimilarityMetric::Cosine, 10, DEFAULT_BLOCK);
    let sc_t = start.elapsed();
    let stream_bytes = streaming_aux_bytes(src.rows(), tgt.rows(), 10, src.cols());
    for (name, m, secs, dense) in [
        ("DInf (streaming)", &sg, sg_t, &dense_dinf.matching),
        ("CSLS (streaming)", &sc, sc_t, &dense_csls.matching),
    ] {
        let f1 = evaluate_links(&task.matching_to_links(m), &task.gold).f1;
        let same = m == dense;
        t.row(vec![
            name.into(),
            fmt3(f1),
            format!("{:.2}", secs.as_secs_f64()),
            fmt_gb(stream_bytes),
            if same { "yes".into() } else { "NO".to_string() },
        ]);
        rows_json.push(json!({
            "method": name, "f1": f1, "bytes": stream_bytes, "matches_dense": same,
        }));
    }
    Report::from_tables("ext-stream", &[t], json!({ "rows": rows_json }))
}

/// Encoder comparison: the three structural substrates (TransE, GCN, RREA)
/// plus names, scored by Hits@1/5/10 and MRR, with DInf and CSLS F1.
pub fn enc(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let mut t = TableBuilder::new(
        "Encoder comparison on D-Z",
        &[
            "Encoder", "Hits@1", "Hits@5", "Hits@10", "MRR", "DInf F1", "CSLS F1",
        ],
    );
    let mut rows_json = Vec::new();
    // TransE is not an EncoderKind (it is a substrate comparison, not a
    // paper table setting), so encode it directly.
    let pair = wb.pair(&spec).clone();
    let transe = TransEEncoder::default().encode(&pair);
    let mut entries: Vec<(String, entmatcher_embed::UnifiedEmbeddings)> =
        vec![("TransE".into(), transe)];
    for kind in [EncoderKind::Gcn, EncoderKind::Rrea, EncoderKind::Name] {
        let (_, emb) = wb.embeddings(&spec, kind);
        entries.push((format!("{:?}", kind), emb.clone()));
    }
    let task = MatchTask::from_pair(&pair);
    for (name, emb) in entries {
        let (src, tgt) = task.candidate_embeddings(&emb);
        let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
        let rank = ranking_report(&task, &raw);
        let ctx = MatchContext::default();
        let f1_dinf = {
            let m = AlgorithmPreset::DInf
                .build()
                .execute(&src, &tgt, &ctx)
                .matching;
            evaluate_links(&task.matching_to_links(&m), &task.gold).f1
        };
        let f1_csls = {
            let m = AlgorithmPreset::Csls
                .build()
                .execute(&src, &tgt, &ctx)
                .matching;
            evaluate_links(&task.matching_to_links(&m), &task.gold).f1
        };
        t.row(vec![
            name.clone(),
            fmt3(rank.hits_at_1),
            fmt3(rank.hits_at_5),
            fmt3(rank.hits_at_10),
            fmt3(rank.mrr),
            fmt3(f1_dinf),
            fmt3(f1_csls),
        ]);
        rows_json.push(json!({
            "encoder": name, "hits1": rank.hits_at_1, "hits10": rank.hits_at_10,
            "mrr": rank.mrr, "dinf_f1": f1_dinf, "csls_f1": f1_csls,
        }));
    }
    Report::from_tables("enc", &[t], json!({ "rows": rows_json }))
}

/// Hubness diagnostics (paper §3.3): k-occurrence skewness, hub share and
/// isolation of the raw scores versus CSLS / RInf / Sinkhorn outputs.
pub fn geom(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Gcn);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
    let mut t = TableBuilder::new(
        "Hubness diagnostics on G-DBP(D-Z): k-occurrence (k = 1)",
        &["Scores", "Skewness", "MaxHubShare", "IsolationRate"],
    );
    let mut rows_json = Vec::new();
    let optimizers: Vec<(&str, Option<Box<dyn ScoreOptimizer>>)> = vec![
        ("raw cosine", None),
        ("CSLS", Some(Box::new(Csls::default()))),
        ("RInf", Some(Box::new(entmatcher_core::RInf::default()))),
        ("Sinkhorn", Some(Box::new(Sinkhorn::default()))),
    ];
    for (name, opt) in optimizers {
        let scores = match opt {
            Some(o) => o.apply(raw.clone()),
            None => raw.clone(),
        };
        let g = geometry_report(&scores, 1);
        t.row(vec![
            name.into(),
            format!("{:.2}", g.k_occurrence_skewness),
            format!("{:.4}", g.max_hub_share),
            format!("{:.4}", g.isolation_rate),
        ]);
        rows_json.push(json!({
            "scores": name,
            "skewness": g.k_occurrence_skewness,
            "max_hub_share": g.max_hub_share,
            "isolation_rate": g.isolation_rate,
        }));
    }
    Report::from_tables("geom", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> Config {
        Config {
            scale: 0.03,
            dwy_scale: 0.003,
            ..Default::default()
        }
    }

    #[test]
    fn ext_multi_improves_recall_over_single_prediction() {
        let mut wb = Workbench::new();
        let r = ext_multi(&tiny_cfg(), &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        let recall = |name: &str| {
            rows.iter().find(|row| row["method"] == name).unwrap()["recall"]
                .as_f64()
                .unwrap()
        };
        assert!(
            recall("Threshold(CSLS)") > recall("CSLS"),
            "multi-assignment should lift recall: {} vs {}",
            recall("Threshold(CSLS)"),
            recall("CSLS")
        );
    }

    #[test]
    fn ext_stream_decisions_match_dense() {
        let mut wb = Workbench::new();
        let r = ext_stream(&tiny_cfg(), &mut wb);
        for row in r.json["rows"].as_array().unwrap() {
            if let Some(m) = row.get("matches_dense") {
                assert_eq!(m, true, "streaming diverged from dense: {row}");
            }
        }
    }

    #[test]
    fn geom_shows_optimizers_reduce_hubness() {
        let mut wb = Workbench::new();
        let r = geom(&tiny_cfg(), &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        let skew = |name: &str| {
            rows.iter().find(|row| row["scores"] == name).unwrap()["skewness"]
                .as_f64()
                .unwrap()
        };
        assert!(
            skew("CSLS") < skew("raw cosine"),
            "CSLS should reduce hub skew: {} vs {}",
            skew("CSLS"),
            skew("raw cosine")
        );
    }
}

/// Seed-size sensitivity: F1 of DInf and CSLS as the training (seed)
/// fraction varies — the dimension the industry evaluation the paper cites
/// (Zhang et al., COLING 2020) found decisive, and the reason the §2.3
/// "scarce supervision" caveat matters.
pub fn ext_seed(cfg: &Config, wb: &mut Workbench) -> Report {
    use entmatcher_graph::KgPair;
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let base = wb.pair(&spec).clone();
    let fractions = [0.05f64, 0.1, 0.2, 0.3, 0.4];
    let mut t = TableBuilder::new(
        "Extension: seed-fraction sensitivity on D-Z (RREA)",
        &["TrainFrac", "#Seeds", "DInf F1", "CSLS F1", "Hun. F1"],
    );
    let mut rows_json = Vec::new();
    for &frac in &fractions {
        let splits = base
            .gold
            .split(frac, 0.1, spec.seed)
            .expect("valid fractions");
        let pair = KgPair::with_splits(
            format!("D-Z@{frac}"),
            base.source.clone(),
            base.target.clone(),
            base.gold.clone(),
            splits,
        );
        let emb = EncoderKind::Rrea.encode(&pair);
        let task = MatchTask::from_pair(&pair);
        let (src, tgt) = task.candidate_embeddings(&emb);
        let ctx = MatchContext::default();
        let mut f1s = Vec::new();
        for preset in [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::Hungarian,
        ] {
            let m = preset.build().execute(&src, &tgt, &ctx).matching;
            f1s.push(evaluate_links(&task.matching_to_links(&m), &task.gold).f1);
        }
        t.row(vec![
            format!("{:.0}%", frac * 100.0),
            pair.train_links().len().to_string(),
            fmt3(f1s[0]),
            fmt3(f1s[1]),
            fmt3(f1s[2]),
        ]);
        rows_json.push(json!({
            "train_frac": frac,
            "seeds": pair.train_links().len(),
            "dinf_f1": f1s[0],
            "csls_f1": f1s[1],
            "hun_f1": f1s[2],
        }));
    }
    Report::from_tables("ext-seed", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod seed_tests {
    use super::*;

    #[test]
    fn more_seeds_help() {
        let mut wb = Workbench::new();
        let cfg = Config {
            scale: 0.05,
            dwy_scale: 0.003,
            ..Default::default()
        };
        let r = ext_seed(&cfg, &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        let first = rows.first().unwrap()["dinf_f1"].as_f64().unwrap();
        let last = rows.last().unwrap()["dinf_f1"].as_f64().unwrap();
        assert!(
            last > first,
            "40% seeds ({last:.3}) should beat 5% seeds ({first:.3})"
        );
    }
}

/// IVF candidate generation (the time half of future direction 4): DInf
/// over an IVF index of the targets at growing probe widths, next to dense
/// DInf. The full-width row probes every list and decides exactly as the
/// dense pass does.
pub fn ext_block(cfg: &Config, wb: &mut Workbench) -> Report {
    use entmatcher_core::IvfParams;
    let spec = benchmarks::dwy100k("D-W", cfg.dwy_scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Gcn);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = MatchContext::default();
    let dense = AlgorithmPreset::DInf.build().execute(&src, &tgt, &ctx);
    let dense_f1 = evaluate_links(&task.matching_to_links(&dense.matching), &task.gold).f1;

    // The usual sqrt(n) list count, set explicitly so the sweep can end at
    // full width.
    let nlist = ((tgt.rows() as f64).sqrt().round() as usize).max(1);
    let mut t = TableBuilder::new(
        format!(
            "Extension: IVF candidates on D-W ({} x {} candidates, nlist = {nlist})",
            src.rows(),
            tgt.rows()
        ),
        &["nprobe", "ListFrac", "F1", "T(s)", "DenseDInfF1"],
    );
    let mut rows_json = Vec::new();
    let widths = [1usize, 2, 4, 8].into_iter().filter(|&p| p < nlist);
    for nprobe in widths.chain([nlist]) {
        // DInf reads only each source's best candidate.
        let ivf = AlgorithmPreset::DInf.build().with_candidates(
            IvfParams {
                nlist,
                nprobe,
                ..IvfParams::default()
            },
            1,
        );
        let run = ivf.execute(&src, &tgt, &ctx);
        let secs = run.elapsed.as_secs_f64();
        let probed = nprobe as f64 / nlist as f64;
        let f1 = evaluate_links(&task.matching_to_links(&run.matching), &task.gold).f1;
        t.row(vec![
            nprobe.to_string(),
            format!("{probed:.3}"),
            fmt3(f1),
            format!("{secs:.2}"),
            fmt3(dense_f1),
        ]);
        rows_json.push(json!({
            "nprobe": nprobe, "nlist": nlist, "probed_fraction": probed,
            "f1": f1, "seconds": secs, "dense_f1": dense_f1,
        }));
    }
    Report::from_tables("ext-block", &[t], json!({ "rows": rows_json }))
}

/// Paired-bootstrap significance of the headline Table 4 orderings at the
/// reproduction's reduced scale: which gaps are real, which are noise.
pub fn ext_sig(cfg: &Config, wb: &mut Workbench) -> Report {
    use entmatcher_eval::significance::bootstrap_f1_difference;
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Rrea);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = MatchContext::default();
    let mut links = std::collections::HashMap::new();
    for preset in AlgorithmPreset::main_seven() {
        let m = preset.build().execute(&src, &tgt, &ctx).matching;
        links.insert(preset.name(), task.matching_to_links(&m));
    }
    let comparisons = [
        ("Sink.", "DInf"),
        ("Hun.", "DInf"),
        ("RInf", "CSLS"),
        ("Sink.", "Hun."),
        ("Hun.", "SMat"),
    ];
    let mut t = TableBuilder::new(
        "Extension: paired bootstrap of F1 differences on R-DBP(D-Z), 95% CI",
        &["Comparison", "dF1", "CI lo", "CI hi", "Significant"],
    );
    let mut rows_json = Vec::new();
    for (a, b) in comparisons {
        let ci = bootstrap_f1_difference(&links[a], &links[b], &task.gold, 500, 0.95, 77);
        let significant = ci.lo > 0.0 || ci.hi < 0.0;
        t.row(vec![
            format!("{a} - {b}"),
            format!("{:+.3}", ci.point),
            format!("{:+.3}", ci.lo),
            format!("{:+.3}", ci.hi),
            if significant {
                "yes".into()
            } else {
                "no".to_string()
            },
        ]);
        rows_json.push(json!({
            "a": a, "b": b, "delta": ci.point, "lo": ci.lo, "hi": ci.hi,
            "significant": significant,
        }));
    }
    Report::from_tables("ext-sig", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod block_tests {
    use super::*;

    #[test]
    fn full_width_ivf_matches_dense_f1_and_one_probe_prunes() {
        let mut wb = Workbench::new();
        let cfg = Config {
            scale: 0.03,
            dwy_scale: 0.01,
            ..Default::default()
        };
        let r = ext_block(&cfg, &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        let first = &rows[0];
        assert_eq!(first["nprobe"].as_f64(), Some(1.0));
        let probed = first["probed_fraction"].as_f64().unwrap();
        assert!(probed < 0.5, "nprobe = 1 should probe few lists: {probed}");
        let last = rows.last().unwrap();
        assert_eq!(last["nprobe"].as_f64(), last["nlist"].as_f64());
        let f1 = last["f1"].as_f64().unwrap();
        let dense = last["dense_f1"].as_f64().unwrap();
        assert_eq!(f1, dense, "full-width IVF F1 must equal dense DInf");
    }

    #[test]
    fn significance_experiment_reports_all_comparisons() {
        let mut wb = Workbench::new();
        let cfg = Config {
            scale: 0.04,
            dwy_scale: 0.01,
            ..Default::default()
        };
        let r = ext_sig(&cfg, &mut wb);
        assert_eq!(r.json["rows"].as_array().unwrap().len(), 5);
    }
}

/// Heterogeneity ablation — the fundamental assumption (§2.3) made
/// measurable: as the two KGs' neighbourhoods diverge, every algorithm
/// decays and the assignment methods' edge over DInf shrinks (the
/// mechanism behind Pattern 2).
pub fn ext_hetero(cfg: &Config, wb: &mut Workbench) -> Report {
    let mut t = TableBuilder::new(
        "Extension: F1 vs structural heterogeneity (D-Z shape, RREA)",
        &["Heterogeneity", "DInf", "CSLS", "Hun.", "Hun. edge"],
    );
    let mut rows_json = Vec::new();
    for &h in &[0.1f64, 0.3, 0.5, 0.7, 0.9] {
        let spec = entmatcher_data::PairSpec {
            heterogeneity: h,
            id: format!("H{h}"),
            ..benchmarks::dbp15k("D-Z", cfg.scale * 0.5)
        };
        let (pair, emb) = wb.embeddings(&spec, EncoderKind::Rrea);
        let task = MatchTask::from_pair(pair);
        let (src, tgt) = task.candidate_embeddings(emb);
        let ctx = MatchContext::default();
        let mut f1s = Vec::new();
        for preset in [
            AlgorithmPreset::DInf,
            AlgorithmPreset::Csls,
            AlgorithmPreset::Hungarian,
        ] {
            let m = preset.build().execute(&src, &tgt, &ctx).matching;
            f1s.push(evaluate_links(&task.matching_to_links(&m), &task.gold).f1);
        }
        let edge = f1s[2] - f1s[0];
        t.row(vec![
            format!("{h:.1}"),
            fmt3(f1s[0]),
            fmt3(f1s[1]),
            fmt3(f1s[2]),
            format!("{edge:+.3}"),
        ]);
        rows_json.push(json!({
            "heterogeneity": h, "dinf": f1s[0], "csls": f1s[1],
            "hun": f1s[2], "hun_edge": edge,
        }));
    }
    Report::from_tables("ext-hetero", &[t], json!({ "rows": rows_json }))
}

/// Embedding-dimension ablation: alignment quality vs dimensionality for
/// the RREA encoder (diminishing returns past a moderate width).
pub fn ext_dim(cfg: &Config, wb: &mut Workbench) -> Report {
    use entmatcher_embed::{Encoder, RreaEncoder};
    let spec = benchmarks::dbp15k("D-Z", cfg.scale * 0.5);
    let pair = wb.pair(&spec).clone();
    let task = MatchTask::from_pair(&pair);
    let mut t = TableBuilder::new(
        "Extension: F1 vs embedding dimension (D-Z, RREA + CSLS)",
        &["Dim", "CSLS F1", "Hits@1", "MRR"],
    );
    let mut rows_json = Vec::new();
    for &dim in &[16usize, 32, 64, 128] {
        let emb = RreaEncoder {
            dim,
            ..Default::default()
        }
        .encode(&pair);
        let (src, tgt) = task.candidate_embeddings(&emb);
        let raw = similarity_matrix(&src, &tgt, SimilarityMetric::Cosine);
        let rank = ranking_report(&task, &raw);
        let m = AlgorithmPreset::Csls
            .build()
            .execute(&src, &tgt, &MatchContext::default())
            .matching;
        let f1 = evaluate_links(&task.matching_to_links(&m), &task.gold).f1;
        t.row(vec![
            dim.to_string(),
            fmt3(f1),
            fmt3(rank.hits_at_1),
            fmt3(rank.mrr),
        ]);
        rows_json.push(json!({
            "dim": dim, "csls_f1": f1, "hits1": rank.hits_at_1, "mrr": rank.mrr,
        }));
    }
    Report::from_tables("ext-dim", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod ablation_tests {
    use super::*;

    #[test]
    fn heterogeneity_monotonically_hurts() {
        let mut wb = Workbench::new();
        let cfg = Config {
            scale: 0.06,
            dwy_scale: 0.003,
            ..Default::default()
        };
        let r = ext_hetero(&cfg, &mut wb);
        let rows = r.json["rows"].as_array().unwrap();
        let first = rows.first().unwrap()["dinf"].as_f64().unwrap();
        let last = rows.last().unwrap()["dinf"].as_f64().unwrap();
        assert!(
            first > last + 0.1,
            "h=0.1 ({first:.3}) should far exceed h=0.9 ({last:.3})"
        );
    }
}

/// Similarity-metric ablation (paper §4.2 lists cosine, Euclidean and
/// Manhattan as the frequent choices and follows the mainstream with
/// cosine): DInf F1 under each metric on D-Z.
pub fn ext_metric(cfg: &Config, wb: &mut Workbench) -> Report {
    let spec = benchmarks::dbp15k("D-Z", cfg.scale);
    let mut t = TableBuilder::new(
        "Extension: similarity-metric ablation on D-Z (RREA + DInf / Hun.)",
        &["Metric", "DInf F1", "Hun. F1"],
    );
    let (pair, emb) = wb.embeddings(&spec, EncoderKind::Rrea);
    let task = MatchTask::from_pair(pair);
    let (src, tgt) = task.candidate_embeddings(emb);
    let ctx = MatchContext::default();
    let mut rows_json = Vec::new();
    for metric in [
        SimilarityMetric::Cosine,
        SimilarityMetric::Euclidean,
        SimilarityMetric::Manhattan,
    ] {
        let mut f1s = Vec::new();
        for matcher in [
            Box::new(Greedy) as Box<dyn entmatcher_core::Matcher>,
            Box::new(entmatcher_core::Hungarian),
        ] {
            let pipeline =
                MatchPipeline::new(metric, Box::new(entmatcher_core::NoOp), matcher);
            let r = pipeline.execute(&src, &tgt, &ctx);
            f1s.push(evaluate_links(&task.matching_to_links(&r.matching), &task.gold).f1);
        }
        t.row(vec![metric.name().into(), fmt3(f1s[0]), fmt3(f1s[1])]);
        rows_json.push(json!({
            "metric": metric.name(), "dinf_f1": f1s[0], "hun_f1": f1s[1],
        }));
    }
    Report::from_tables("ext-metric", &[t], json!({ "rows": rows_json }))
}

#[cfg(test)]
mod metric_tests {
    use super::*;

    #[test]
    fn all_metrics_produce_signal() {
        let mut wb = Workbench::new();
        let cfg = Config {
            scale: 0.04,
            dwy_scale: 0.003,
            ..Default::default()
        };
        let r = ext_metric(&cfg, &mut wb);
        for row in r.json["rows"].as_array().unwrap() {
            assert!(row["dinf_f1"].as_f64().unwrap() > 0.1, "metric collapsed: {row}");
        }
    }
}
