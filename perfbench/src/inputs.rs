//! Seeded input synthesis shared by the workloads. Everything here runs
//! before any timing; the digest lets two runs prove they measured
//! identical inputs.

use entmatcher_data::spec::DegreeModel;
use entmatcher_data::zipf::WeightedSampler;
use entmatcher_linalg::{snapshot, Matrix};
use entmatcher_support::rng::{SeedableRng, StdRng};
use std::path::Path;

/// FNV-1a over every input byte the workload generated.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Mixes every file directly under `dir`, in name order.
    pub fn update_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        let mut names: Vec<_> = std::fs::read_dir(dir)?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()?;
        names.sort();
        for path in names {
            if path.is_file() {
                self.update(&std::fs::read(&path)?);
            }
        }
        Ok(())
    }

    /// The note line printed with the result.
    pub fn describe(&self) -> String {
        format!("input_digest={:016x}", self.0)
    }
}

/// Writes `source.emb` / `target.emb` snapshots, as `entmatcher encode`
/// does.
pub fn write_embeddings(dir: &Path, source: &Matrix, target: &Matrix) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("source.emb"), snapshot::to_bytes(source))?;
    std::fs::write(dir.join("target.emb"), snapshot::to_bytes(target))
}

/// Loads the snapshots the way `entmatcher match` does (whole-file read,
/// then decode).
pub fn load_embeddings(dir: &Path) -> Result<(Matrix, Matrix), String> {
    let read = |name: &str| -> Result<Matrix, String> {
        let bytes = std::fs::read(dir.join(name)).map_err(|e| format!("{name}: {e}"))?;
        snapshot::from_bytes(&bytes).map_err(|e| format!("{name}: {e}"))
    };
    Ok((read("source.emb")?, read("target.emb")?))
}

/// Rows `start..start + n` of both sides: a dense slice whose gold
/// alignment is the identity (clustered pairs are generated row-aligned).
pub fn row_slice(source: &Matrix, target: &Matrix, start: usize, n: usize) -> (Matrix, Matrix) {
    let end = (start + n).min(source.rows()).min(target.rows());
    let idx: Vec<usize> = (start.min(end)..end).collect();
    (
        source.select_rows(&idx).expect("slice rows in range"),
        target.select_rows(&idx).expect("slice rows in range"),
    )
}

/// `len` ids from a Zipf(`exponent`) law over `0..n`: the id of rank `r`
/// (1-based) is drawn with weight `r^-exponent`, and which id holds which
/// rank is a permutation fixed by `seed`.
pub fn zipf_stream(n: usize, len: usize, exponent: f64, seed: u64) -> Vec<u32> {
    let sampler =
        WeightedSampler::from_model(DegreeModel::PowerLaw { exponent }, n, seed ^ 0x5eed_21bf);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| sampler.sample(&mut rng) as u32).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(ids: &[u32], n: usize) -> Vec<usize> {
        let mut c = vec![0usize; n];
        for &id in ids {
            c[id as usize] += 1;
        }
        c
    }

    #[test]
    fn zipf_stream_is_a_pure_function_of_the_seed() {
        assert_eq!(
            zipf_stream(500, 2000, 1.0, 7),
            zipf_stream(500, 2000, 1.0, 7)
        );
        assert_ne!(
            zipf_stream(500, 2000, 1.0, 7),
            zipf_stream(500, 2000, 1.0, 8)
        );
        assert!(zipf_stream(500, 2000, 1.0, 7).iter().all(|&id| id < 500));
    }

    #[test]
    fn zipf_rank_frequencies_follow_the_law() {
        // Under s = 1 the rank-r id has frequency proportional to 1/r, so
        // the top id is about twice as frequent as the second and ten
        // times the tenth.
        let n = 1000;
        let mut c = counts(&zipf_stream(n, 200_000, 1.0, 3), n);
        c.sort_unstable_by(|a, b| b.cmp(a));
        let top = c[0] as f64;
        let ratio2 = top / c[1] as f64;
        let ratio10 = top / c[9] as f64;
        assert!((1.6..2.5).contains(&ratio2), "rank1/rank2 = {ratio2}");
        assert!((7.0..14.0).contains(&ratio10), "rank1/rank10 = {ratio10}");
        // Harmonic mass: the top 10 of 1000 ranks hold H(10)/H(1000) ~ 0.39.
        let head: usize = c[..10].iter().sum();
        let share = head as f64 / 200_000.0;
        assert!((0.35..0.43).contains(&share), "top-10 share {share}");
    }

    #[test]
    fn zipf_rank_order_is_shuffled_by_the_seed() {
        let n = 1000;
        let hottest = |seed| {
            let c = counts(&zipf_stream(n, 50_000, 1.0, seed), n);
            (0..n).max_by_key(|&i| c[i]).expect("non-empty")
        };
        // The most frequent id is not pinned to id 0 and moves with the seed.
        let picks: Vec<usize> = (1..=4).map(hottest).collect();
        assert!(picks.iter().any(|&p| p != 0));
        assert!(picks.windows(2).any(|w| w[0] != w[1]), "{picks:?}");
    }
}
