#![warn(missing_docs)]

//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! The `repro` binary (see `src/bin/repro.rs`) dispatches on experiment ids
//! (`table2` … `table8`, `fig4` … `fig7`, `dlem`, `appc`, `all`); this
//! library holds the shared machinery — configuration, dataset/embedding
//! caches, paper reference numbers — and one module per artifact family.
//! [`artifact`] types the committed `BENCH_*.json` perf ledgers, and
//! [`gate`] (the `bench_gate` binary) gates fresh runs against them.

pub mod artifact;
pub mod extensions;
pub mod figures;
pub mod gate;
pub mod paper;
pub mod tables;

use entmatcher_data::PairSpec;
use entmatcher_embed::UnifiedEmbeddings;
use entmatcher_eval::EncoderKind;
use entmatcher_graph::KgPair;
use std::collections::HashMap;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Scale factor for DBP15K / SRPRS / DBP15K+ / FB_DBP_MUL presets.
    /// 1.0 reproduces the paper's sizes; the default keeps the full grid
    /// within minutes on a laptop while preserving every shape conclusion.
    pub scale: f64,
    /// Scale factor for the large DWY100K presets.
    pub dwy_scale: f64,
    /// Directory for JSON result dumps and the generated experiment report.
    pub out_dir: std::path::PathBuf,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            scale: 0.2,
            dwy_scale: 0.06,
            out_dir: std::path::PathBuf::from("bench_results"),
        }
    }
}

impl Config {
    /// Parses `--scale`, `--dwy-scale` and `--out` from CLI-style args,
    /// returning the config and the remaining positional arguments.
    pub fn from_args(args: &[String]) -> (Config, Vec<String>) {
        let mut cfg = Config::default();
        let mut rest = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale requires a value");
                    cfg.scale = v.parse().expect("--scale must be a float");
                }
                "--dwy-scale" => {
                    let v = it.next().expect("--dwy-scale requires a value");
                    cfg.dwy_scale = v.parse().expect("--dwy-scale must be a float");
                }
                "--out" => {
                    let v = it.next().expect("--out requires a path");
                    cfg.out_dir = v.into();
                }
                other => rest.push(other.to_owned()),
            }
        }
        (cfg, rest)
    }
}

/// Caches generated pairs and encoded embeddings across experiments: a
/// `repro all` run touches the same datasets many times, and both
/// generation and encoding are the expensive parts.
#[derive(Default)]
pub struct Workbench {
    pairs: HashMap<String, KgPair>,
    embeddings: HashMap<String, UnifiedEmbeddings>,
}

impl Workbench {
    /// Creates an empty workbench.
    pub fn new() -> Self {
        Self::default()
    }

    /// Generates (or returns the cached) pair for a spec.
    pub fn pair(&mut self, spec: &PairSpec) -> &KgPair {
        let key = cache_key(spec);
        self.pairs
            .entry(key)
            .or_insert_with(|| entmatcher_data::generate_pair(spec))
    }

    /// Encodes (or returns the cached embeddings of) a pair.
    pub fn embeddings(
        &mut self,
        spec: &PairSpec,
        kind: EncoderKind,
    ) -> (&KgPair, &UnifiedEmbeddings) {
        let key = cache_key(spec);
        let ekey = format!("{key}::{:?}", kind);
        if !self.pairs.contains_key(&key) {
            self.pairs
                .insert(key.clone(), entmatcher_data::generate_pair(spec));
        }
        let pair = &self.pairs[&key];
        if !self.embeddings.contains_key(&ekey) {
            let emb = kind.encode(pair);
            self.embeddings.insert(ekey.clone(), emb);
        }
        (pair, &self.embeddings[&ekey])
    }

    /// Drops cached embeddings (datasets stay) — used between large
    /// experiments to bound memory.
    pub fn drop_embeddings(&mut self) {
        self.embeddings.clear();
    }
}

fn cache_key(spec: &PairSpec) -> String {
    format!("{}@{}x{}", spec.id, spec.classes, spec.seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_parsing() {
        let args: Vec<String> = ["--scale", "0.5", "table4", "--out", "/tmp/x"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let (cfg, rest) = Config::from_args(&args);
        assert_eq!(cfg.scale, 0.5);
        assert_eq!(cfg.out_dir, std::path::PathBuf::from("/tmp/x"));
        assert_eq!(rest, vec!["table4"]);
    }

    #[test]
    fn workbench_caches_pairs() {
        let spec = PairSpec {
            classes: 50,
            latent_edges: 200,
            relations: 5,
            ..Default::default()
        };
        let mut wb = Workbench::new();
        let a = wb.pair(&spec).gold.len();
        let b = wb.pair(&spec).gold.len();
        assert_eq!(a, b);
        assert_eq!(wb.pairs.len(), 1);
    }

    #[test]
    fn workbench_caches_embeddings_per_kind() {
        let spec = PairSpec {
            classes: 40,
            latent_edges: 150,
            relations: 5,
            fillers_per_kg: 0,
            ..Default::default()
        };
        let mut wb = Workbench::new();
        let _ = wb.embeddings(&spec, EncoderKind::Name);
        let _ = wb.embeddings(&spec, EncoderKind::Name);
        let _ = wb.embeddings(&spec, EncoderKind::Gcn);
        assert_eq!(wb.embeddings.len(), 2);
        wb.drop_embeddings();
        assert!(wb.embeddings.is_empty());
    }
}
