//! Linear assignment by shortest augmenting paths — the Hungarian
//! algorithm (paper §3.5, "Hun.") with Jonker–Volgenant's lazy Dijkstra.
//!
//! Maximizes the sum of pairwise scores under the 1-to-1 constraint.
//! Rows are inserted one at a time, in index order, each by a Dijkstra
//! search over reduced costs that stops at the first free column it
//! reaches; the matching is then augmented along that path. The search is
//! the one of Jonker and Volgenant (1987): columns are split into
//! *scanned*, *ready* (at the current minimum distance, not yet scanned)
//! and *todo* sets, held as the slots of one column order, and the prices
//! of the scanned columns are updated once per augmentation instead of at
//! every step. Time is O(n²m) in the worst case, auxiliary memory O(n + m).
//!
//! # The row scan
//!
//! Scanning a row is nearly the whole solve: on one 1575-candidate S-W
//! RREA pair a solve made 84k scans and one min pass per nine of them. A
//! scan relaxes every todo column whose distance the scanned row improves.
//! It runs in natural column order over contiguous scores, prices and
//! distances: [`relax_mask`] writes one bit per column for
//! `cost - price[j] - h < dist[j]`, where `dist` holds each todo column's
//! distance and NaN for every column that has left todo, so the comparison
//! masks those out. The solver then visits only the set bits and
//! recomputes each hit's distance with the same expression. A tall
//! instance copies its strided problem row into one buffer first.
//!
//! The decisions are exactly those of a scan that visits the todo slots in
//! order, ties included, because:
//! - which columns a scan improves does not depend on the order it visits
//!   them, and each improvement touches only its own column;
//! - only a hit at exactly the current minimum (a *tie*) depends on the
//!   order: it joins the ready list, or ends the search when its column is
//!   free, and the ready list's order decides which row is scanned next
//!   and which free column ends a search. Ties are sorted by slot (`pos`,
//!   the inverse of the column order, kept on every swap) and handled in
//!   that order, with the swaps a slot-order scan makes;
//! - once a tie ends the search, the hits a slot-order scan would not have
//!   reached are dead: only the path and the scanned columns' distances
//!   are read before the next insertion re-initializes every column.
//!
//! A column's distance is kept by slot from the moment it leaves todo, for
//! the price update and the exchange step. The min pass stays a walk over
//! the todo slots in order. The slot-order scan stays in the tests as the
//! bitwise oracle.
//!
//! JV's initialization phases (column reduction, reduction transfer,
//! augmenting row reduction) are left out. On 1575-candidate SRPRS-like
//! pairs, two rounds of augmenting row reduction ran 1.8M–3.0M row
//! reductions, 23–42 times as long as the whole solve without them, and
//! column reduction alone made one pair in six pick a different, equally
//! scored assignment. Without them the solver makes the decisions of the
//! eager textbook method, which the tests keep as their oracle; only
//! between exactly tied assignments can rounding pick another one.
//!
//! Rectangular instances are handled directly: with more sources than
//! targets the targets are the inserted rows, read as strided columns of
//! the score matrix, and the surplus sources end up unassigned; with more
//! targets, the surplus targets stay unused. Combined with dummy-column
//! padding ([`crate::dummy`]), this implements the paper's
//! unmatchable-setting protocol (§5.1).
//!
//! A NaN or −∞ score is a missing edge: it never enters a distance or a
//! price. The result then has the most pairs possible over the remaining
//! cells and, among those matchings, the best total; a source left
//! without a partner is `None`.
//!
//! Each solve adds its scan counts to the telemetry counters
//! `hungarian.row_scans`, `hungarian.min_passes` and `hungarian.col_hits`
//! (relaxed columns).

use super::{MatchContext, Matcher, Matching};
use entmatcher_linalg::relax::relax_mask;
use entmatcher_linalg::Matrix;
use entmatcher_support::telemetry;

/// Hungarian assignment (shortest augmenting paths, lazy JV Dijkstra).
#[derive(Debug, Clone, Copy, Default)]
pub struct Hungarian;

impl Matcher for Hungarian {
    fn name(&self) -> &'static str {
        "Hungarian"
    }

    fn run(&self, scores: &Matrix, _ctx: &MatchContext) -> Matching {
        let (n_s, n_t) = scores.shape();
        let data = scores.as_slice();
        let (assignment, counts) = if n_s <= n_t {
            let (a, counts) = solve(&ByRow { data, m: n_t }, n_s, n_t);
            (a.row_col, counts)
        } else {
            // Insert the targets and read off each source's target.
            let (a, counts) = solve(&ByCol { data, stride: n_t }, n_t, n_s);
            (a.col_row, counts)
        };
        counts.record();
        Matching::new(
            assignment
                .into_iter()
                .map(|j| (j != FREE).then_some(j))
                .collect(),
        )
    }

    fn aux_bytes(&self, n_s: usize, n_t: usize) -> usize {
        // Over the longer side: prices and todo and settled distances in
        // f64, the tie list's u64 keys, and predecessor, column order, its
        // inverse and column-to-row arrays in u32; one relaxation bit per
        // column; a tall input's problem row copied out in f32. Then
        // row-to-column in u32 over the shorter side, and the per-source
        // result.
        let (n, m) = (n_s.min(n_t), n_s.max(n_t));
        let row_copy = if n_s > n_t { m * 4 } else { 0 };
        m * (8 * 4 + 4 * 4) + m.div_ceil(64) * 8 + row_copy + n * 4 + n_s * 8
    }
}

/// Marks a row or column that has no partner.
const FREE: u32 = u32::MAX;

/// Read access to the scores of the problem's rows.
trait Scores {
    /// The cells of problem row `i`, indexed through [`Scores::cell`].
    fn row(&self, i: usize) -> &[f32];
    /// The score of column `j` in a row returned by [`Scores::row`].
    fn cell(&self, row: &[f32], j: usize) -> f32;
    /// Problem row `i` as contiguous cells in column order, copied into
    /// `buf` when the matrix holds them apart.
    fn cells<'a>(&'a self, i: usize, buf: &'a mut Vec<f32>) -> &'a [f32];
}

/// Problem rows are the score matrix's rows.
struct ByRow<'a> {
    data: &'a [f32],
    m: usize,
}

impl Scores for ByRow<'_> {
    fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.m..(i + 1) * self.m]
    }

    fn cell(&self, row: &[f32], j: usize) -> f32 {
        row[j]
    }

    fn cells<'a>(&'a self, i: usize, _buf: &'a mut Vec<f32>) -> &'a [f32] {
        self.row(i)
    }
}

/// Problem rows are the score matrix's columns, `stride` cells apart.
struct ByCol<'a> {
    data: &'a [f32],
    stride: usize,
}

impl Scores for ByCol<'_> {
    fn row(&self, i: usize) -> &[f32] {
        &self.data[i..]
    }

    fn cell(&self, row: &[f32], j: usize) -> f32 {
        row[j * self.stride]
    }

    fn cells<'a>(&'a self, i: usize, buf: &'a mut Vec<f32>) -> &'a [f32] {
        buf.clear();
        buf.extend(self.data[i..].iter().step_by(self.stride));
        buf
    }
}

/// Both directions of an assignment; [`FREE`] marks the unassigned.
struct Assignment {
    row_col: Vec<u32>,
    col_row: Vec<u32>,
}

/// The work one solve did.
#[derive(Debug, Default, PartialEq, Eq)]
struct ScanCounts {
    /// Rows scanned.
    row_scans: u64,
    /// Passes over the todo slots for a new minimum distance.
    min_passes: u64,
    /// Columns a scan relaxed (set bits of a relaxation mask).
    col_hits: u64,
}

impl ScanCounts {
    /// Adds the counts to the trace's `hungarian.*` counters.
    fn record(&self) {
        telemetry::add("hungarian.row_scans", self.row_scans);
        telemetry::add("hungarian.min_passes", self.min_passes);
        telemetry::add("hungarian.col_hits", self.col_hits);
    }
}

/// Maximum-score assignment of `n <= m` rows to `m` columns.
///
/// Works on costs (negated scores) and column prices `price`, keeping
/// every assigned row's column a minimizer of `cost - price` over the
/// row's present edges. Inserting row `f` runs Dijkstra from it: a
/// column's distance is the cheapest alternating path from `f` to it in
/// those terms and `pred[j]` the row it came from. `order` holds the
/// columns as `[scanned | ready | todo]`, split at `low` and `up`, and
/// `pos` is its inverse. `dist[j]` is a todo column's distance and NaN
/// once the column leaves todo; `settled[k]` is then the distance of the
/// column in slot `k`.
fn solve(scores: &impl Scores, n: usize, m: usize) -> (Assignment, ScanCounts) {
    debug_assert!(n <= m);
    const INF: f64 = f64::INFINITY;
    let mut price = vec![0.0f64; m];
    let mut dist = vec![0.0f64; m];
    let mut settled = vec![0.0f64; m];
    let mut pred = vec![0u32; m];
    let mut order = vec![0u32; m];
    let mut pos = vec![0u32; m];
    let mut col_row = vec![FREE; m];
    let mut row_col = vec![FREE; n];
    let mut relaxed = vec![0u64; m.div_ceil(64)];
    // One scan's ties, as `pos << 32 | column`; never more than m.
    let mut ties: Vec<u64> = Vec::with_capacity(m);
    let mut row_buf = Vec::new();
    let mut counts = ScanCounts::default();
    // Swaps slots `a` and `b` of the column order, keeping `pos` inverse.
    let swap = |order: &mut [u32], pos: &mut [u32], a: usize, b: usize| {
        order.swap(a, b);
        pos[order[a] as usize] = a as u32;
        pos[order[b] as usize] = b as u32;
    };
    for f in 0..n {
        let row = scores.cells(f, &mut row_buf);
        for j in 0..m {
            // NaN and +inf costs stay unreachable.
            let d = -(row[j] as f64) - price[j];
            dist[j] = if d < INF { d } else { INF };
            pred[j] = f as u32;
            order[j] = j as u32;
            pos[j] = j as u32;
        }
        let (mut low, mut up) = (0, 0);
        let mut min = INF;
        let sink = loop {
            if low == up {
                // Move the todo columns at the new minimum into ready.
                counts.min_passes += 1;
                min = INF;
                let todo = up;
                for k in todo..m {
                    let d = dist[order[k] as usize];
                    if d <= min {
                        if d < min {
                            up = low;
                            min = d;
                        }
                        swap(&mut order, &mut pos, k, up);
                        up += 1;
                    }
                }
                if min == INF {
                    break None;
                }
                for k in low..up {
                    let j = order[k] as usize;
                    settled[k] = dist[j];
                    dist[j] = f64::NAN;
                }
                if let Some(&j) = order[low..up]
                    .iter()
                    .find(|&&j| col_row[j as usize] == FREE)
                {
                    break Some(j as usize);
                }
            }
            // Scan the row assigned to the next ready column.
            let j1 = order[low] as usize;
            low += 1;
            let i = col_row[j1] as usize;
            let row = scores.cells(i, &mut row_buf);
            let h = -(row[j1] as f64) - price[j1] - min;
            relax_mask(row, &price, h, &dist, &mut relaxed);
            counts.row_scans += 1;
            ties.clear();
            for (w, &bits) in relaxed.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let d = -(row[j] as f64) - price[j] - h;
                    debug_assert!(d < dist[j], "the mask is this comparison");
                    pred[j] = i as u32;
                    dist[j] = d;
                    if d == min {
                        ties.push(u64::from(pos[j]) << 32 | j as u64);
                    }
                    counts.col_hits += 1;
                }
            }
            // Ties in slot order: the first free one ends the search, the
            // others join the ready list.
            ties.sort_unstable();
            let mut reached = None;
            for &key in &ties {
                let (k, j) = ((key >> 32) as usize, key as u32 as usize);
                if col_row[j] == FREE {
                    reached = Some(j);
                    break;
                }
                swap(&mut order, &mut pos, k, up);
                settled[up] = dist[j];
                dist[j] = f64::NAN;
                up += 1;
            }
            if reached.is_some() {
                break reached;
            }
        };
        // The path ends at a free column; with none reachable, at the
        // scanned column whose row `f` replaces most profitably, if any.
        let (end, stop) = match sink {
            Some(j) => (j, min),
            None => match best_exchange(scores, &order[..low], &settled[..low], &price, &col_row) {
                Some(k) => {
                    let j = order[k] as usize;
                    row_col[col_row[j] as usize] = FREE;
                    (j, settled[k])
                }
                None => continue,
            },
        };
        // Columns settled before the path's end get cheaper by the gap,
        // which keeps every assigned column a minimizer after the flip.
        for (&j, &d) in order[..low].iter().zip(&settled[..low]) {
            if d < stop {
                price[j as usize] += d - stop;
            }
        }
        // Flip the path: each row on it takes the column it reached.
        let mut j = end;
        loop {
            let i = pred[j] as usize;
            col_row[j] = i as u32;
            let prev = std::mem::replace(&mut row_col[i], j as u32);
            if i == f {
                break;
            }
            j = prev as usize;
        }
    }
    (Assignment { row_col, col_row }, counts)
}

/// The slot of the scanned column whose row the inserted row should
/// displace, when no free column is reachable: the one where the
/// alternating path to it, minus the displaced row's own edge, lowers the
/// total cost the most. `None` when no exchange lowers it, and the
/// inserted row stays free. `settled` holds the scanned columns'
/// distances, slot by slot.
///
/// Keeping every inserted row's best exchange makes the final matching the
/// cheapest among those of maximum cardinality over the present edges.
fn best_exchange(
    scores: &impl Scores,
    scanned: &[u32],
    settled: &[f64],
    price: &[f64],
    col_row: &[u32],
) -> Option<usize> {
    let mut best = None;
    let mut best_delta = 0.0;
    for (k, (&j, &d)) in scanned.iter().zip(settled).enumerate() {
        let j = j as usize;
        let row = scores.row(col_row[j] as usize);
        // The path to `j` costs `dist + price`; dropping the displaced
        // row's edge takes its cost off, i.e. adds its score.
        let delta = d + price[j] + scores.cell(row, j) as f64;
        if delta < best_delta {
            best_delta = delta;
            best = Some(k);
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AlgorithmPreset;
    use entmatcher_support::rng::{Rng, SeedableRng, StdRng};

    fn total_score(scores: &Matrix, m: &Matching) -> f32 {
        m.pairs().map(|(i, j)| scores.get(i, j)).sum()
    }

    /// Brute-force optimal assignment for small square instances.
    fn brute_force(scores: &Matrix) -> f32 {
        fn rec(scores: &Matrix, row: usize, used: &mut Vec<bool>) -> f32 {
            if row == scores.rows() {
                return 0.0;
            }
            let mut best = f32::NEG_INFINITY;
            for j in 0..scores.cols() {
                if used[j] {
                    continue;
                }
                used[j] = true;
                let v = scores.get(row, j) + rec(scores, row + 1, used);
                used[j] = false;
                best = best.max(v);
            }
            best
        }
        rec(scores, 0, &mut vec![false; scores.cols()])
    }

    /// The textbook eager potentials method, the differential oracle for
    /// [`solve`]: `u[i] + v[j] <= cost(i, j)` throughout, every Dijkstra
    /// step rescanning all columns and updating every potential. It never
    /// returns on a row without a finite cost.
    fn oracle_solve_min(
        n: usize,
        m: usize,
        cost: impl Fn(usize, usize) -> f64,
    ) -> Vec<Option<u32>> {
        debug_assert!(n <= m);
        const INF: f64 = f64::INFINITY;
        // 1-based arrays; p[j] = row assigned to column j (0 = free).
        let mut u = vec![0.0f64; n + 1];
        let mut v = vec![0.0f64; m + 1];
        let mut p = vec![0usize; m + 1];
        let mut way = vec![0usize; m + 1];
        for i in 1..=n {
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; m + 1];
            let mut used = vec![false; m + 1];
            loop {
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=m {
                    if used[j] {
                        continue;
                    }
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=m {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
        }
        let mut assignment = vec![None; n];
        for j in 1..=m {
            if p[j] != 0 {
                assignment[p[j] - 1] = Some((j - 1) as u32);
            }
        }
        assignment
    }

    /// The oracle's matcher: transposes tall instances like `run` does.
    fn oracle(scores: &Matrix) -> Matching {
        let (n_s, n_t) = scores.shape();
        if n_s == 0 || n_t == 0 {
            return Matching::new(vec![None; n_s]);
        }
        if n_s <= n_t {
            return Matching::new(oracle_solve_min(n_s, n_t, |i, j| {
                -(scores.get(i, j) as f64)
            }));
        }
        let cols = oracle_solve_min(n_t, n_s, |j, i| -(scores.get(i, j) as f64));
        let mut assignment = vec![None; n_s];
        for (j, pick) in cols.into_iter().enumerate() {
            if let Some(i) = pick {
                assignment[i as usize] = Some(j as u32);
            }
        }
        Matching::new(assignment)
    }

    fn run(scores: &Matrix) -> Matching {
        Hungarian.run(scores, &MatchContext::default())
    }

    /// The slot-order scan [`solve`] replaced: each row scan walks the todo
    /// slots through `order`, gathering every column's score, price and
    /// distance. The bitwise oracle of `solve`, ties included.
    fn slot_order_solve(scores: &impl Scores, n: usize, m: usize) -> Assignment {
        debug_assert!(n <= m);
        const INF: f64 = f64::INFINITY;
        let cost = |row: &[f32], j: usize| -(scores.cell(row, j) as f64);
        let mut price = vec![0.0f64; m];
        let mut dist = vec![0.0f64; m];
        let mut pred = vec![0u32; m];
        let mut order = vec![0u32; m];
        let mut col_row = vec![FREE; m];
        let mut row_col = vec![FREE; n];
        for f in 0..n {
            let row = scores.row(f);
            for j in 0..m {
                // NaN and +inf costs stay unreachable.
                let d = cost(row, j) - price[j];
                dist[j] = if d < INF { d } else { INF };
                pred[j] = f as u32;
                order[j] = j as u32;
            }
            let (mut low, mut up) = (0, 0);
            let mut min = INF;
            let sink = loop {
                if low == up {
                    // Move the todo columns at the new minimum into ready.
                    min = INF;
                    let todo = up;
                    for k in todo..m {
                        let d = dist[order[k] as usize];
                        if d <= min {
                            if d < min {
                                up = low;
                                min = d;
                            }
                            order.swap(k, up);
                            up += 1;
                        }
                    }
                    if min == INF {
                        break None;
                    }
                    if let Some(&j) = order[low..up]
                        .iter()
                        .find(|&&j| col_row[j as usize] == FREE)
                    {
                        break Some(j as usize);
                    }
                }
                // Scan the row assigned to the next ready column.
                let j1 = order[low] as usize;
                low += 1;
                let i = col_row[j1] as usize;
                let row = scores.row(i);
                let h = cost(row, j1) - price[j1] - min;
                let mut reached = None;
                let todo = up;
                for k in todo..m {
                    let j = order[k] as usize;
                    let d = cost(row, j) - price[j] - h;
                    if d < dist[j] {
                        pred[j] = i as u32;
                        if d == min {
                            if col_row[j] == FREE {
                                reached = Some(j);
                                break;
                            }
                            order.swap(k, up);
                            up += 1;
                        }
                        dist[j] = d;
                    }
                }
                if reached.is_some() {
                    break reached;
                }
            };
            // The path ends at a free column; with none reachable, at the
            // scanned column whose row `f` replaces most profitably, if any.
            let (end, stop) = match sink {
                Some(j) => (j, min),
                None => {
                    match slot_order_best_exchange(scores, &order[..low], &dist, &price, &col_row) {
                        Some(j) => {
                            row_col[col_row[j] as usize] = FREE;
                            (j, dist[j])
                        }
                        None => continue,
                    }
                }
            };
            // Columns settled before the path's end get cheaper by the gap,
            // which keeps every assigned column a minimizer after the flip.
            for &j in &order[..low] {
                let j = j as usize;
                if dist[j] < stop {
                    price[j] += dist[j] - stop;
                }
            }
            // Flip the path: each row on it takes the column it reached.
            let mut j = end;
            loop {
                let i = pred[j] as usize;
                col_row[j] = i as u32;
                let prev = std::mem::replace(&mut row_col[i], j as u32);
                if i == f {
                    break;
                }
                j = prev as usize;
            }
        }
        Assignment { row_col, col_row }
    }

    /// The exchange step of [`slot_order_solve`], over its slot-ordered
    /// scanned columns and their distances.
    fn slot_order_best_exchange(
        scores: &impl Scores,
        scanned: &[u32],
        dist: &[f64],
        price: &[f64],
        col_row: &[u32],
    ) -> Option<usize> {
        let mut best = None;
        let mut best_delta = 0.0;
        for &j in scanned {
            let j = j as usize;
            let row = scores.row(col_row[j] as usize);
            // The path to `j` costs `dist + price`; dropping the displaced
            // row's edge takes its cost off, i.e. adds its score.
            let delta = dist[j] + price[j] + scores.cell(row, j) as f64;
            if delta < best_delta {
                best_delta = delta;
                best = Some(j);
            }
        }
        best
    }

    #[test]
    fn optimal_on_small_instances() {
        for seed in 0..20u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 1000) as f32 / 1000.0
            };
            let s = Matrix::from_fn(6, 6, |_, _| next());
            let m = run(&s);
            assert!(m.is_injective());
            assert_eq!(m.matched_count(), 6);
            let got = total_score(&s, &m);
            let want = brute_force(&s);
            assert!(
                (got - want).abs() < 1e-4,
                "seed {seed}: {got} vs optimal {want}"
            );
        }
    }

    #[test]
    fn enforces_one_to_one_where_greedy_conflicts() {
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.5, 0.8, 0.2]).unwrap();
        // Greedy would double-book target 0; optimal is (0->1, 1->0)?
        // Sums: 0.9 + 0.2 = 1.1 vs 0.5 + 0.8 = 1.3 -> (0->1, 1->0).
        let m = run(&s);
        assert_eq!(m.assignment(), &[Some(1), Some(0)]);
    }

    #[test]
    fn rectangular_wide_leaves_targets_unused() {
        let s = Matrix::from_vec(2, 4, vec![0.1, 0.9, 0.2, 0.3, 0.8, 0.1, 0.2, 0.3]).unwrap();
        let m = run(&s);
        assert_eq!(m.assignment(), &[Some(1), Some(0)]);
    }

    #[test]
    fn rectangular_tall_leaves_sources_unmatched() {
        let s = Matrix::from_vec(3, 1, vec![0.2, 0.9, 0.5]).unwrap();
        let m = run(&s);
        assert_eq!(m.matched_count(), 1);
        assert_eq!(
            m.assignment()[1],
            Some(0),
            "highest scorer wins the only target"
        );
    }

    #[test]
    fn degenerate_shapes() {
        assert!(run(&Matrix::zeros(0, 5)).is_empty());
        let m = run(&Matrix::zeros(3, 0));
        assert_eq!(m.assignment(), &[None, None, None]);
    }

    #[test]
    fn identity_on_diagonal_dominant() {
        let n = 20;
        let s = Matrix::from_fn(n, n, |r, c| {
            if r == c {
                1.0
            } else {
                0.01 * ((r + c) % 7) as f32
            }
        });
        let m = run(&s);
        for (i, t) in m.assignment().iter().enumerate() {
            assert_eq!(*t, Some(i as u32));
        }
    }

    #[test]
    fn row_without_finite_scores_is_left_unmatched() {
        for missing in [f32::NAN, f32::NEG_INFINITY] {
            let s = Matrix::from_vec(
                3,
                3,
                vec![0.9, 0.1, 0.2, missing, missing, missing, 0.3, 0.8, 0.4],
            )
            .unwrap();
            let m = run(&s);
            assert_eq!(m.assignment(), &[Some(0), None, Some(1)], "{missing}");
        }
    }

    #[test]
    fn missing_edges_never_enter_the_assignment() {
        // Source 1 can only take target 0, so source 0 must yield it even
        // though 0 -> 0 is the best single score.
        let nan = f32::NAN;
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.1, 0.5, nan]).unwrap();
        assert_eq!(run(&s).assignment(), &[Some(1), Some(0)]);
        // Both sources see only target 0: the better one keeps it, in
        // either insertion order.
        let s = Matrix::from_vec(2, 2, vec![0.2, nan, 0.7, f32::NEG_INFINITY]).unwrap();
        assert_eq!(run(&s).assignment(), &[None, Some(0)]);
        let s = Matrix::from_vec(2, 2, vec![0.7, nan, 0.2, nan]).unwrap();
        assert_eq!(run(&s).assignment(), &[Some(0), None]);
        // Tall: the targets are inserted, with the same guarantee.
        let s = Matrix::from_vec(3, 2, vec![nan, 0.4, 0.3, 0.9, nan, nan]).unwrap();
        assert_eq!(run(&s).assignment(), &[Some(1), Some(0), None]);
    }

    #[test]
    fn positive_infinity_terminates_injectively() {
        let inf = f32::INFINITY;
        for s in [
            Matrix::from_vec(3, 3, vec![0.1, inf, 0.2, 0.5, inf, 0.3, inf, 0.4, inf]).unwrap(),
            Matrix::from_vec(2, 3, vec![inf, inf, inf, inf, f32::NAN, 0.1]).unwrap(),
            Matrix::from_vec(3, 2, vec![inf, 0.0, inf, inf, f32::NEG_INFINITY, inf]).unwrap(),
        ] {
            let m = run(&s);
            assert_eq!(m.len(), s.rows());
            assert!(m.is_injective());
        }
    }

    #[test]
    fn nan_embedding_row_is_unmatched_by_the_hungarian_preset() {
        let mut rng = StdRng::seed_from_u64(5);
        let source = Matrix::from_fn(6, 4, |_, _| rng.gen::<f32>() - 0.5);
        let mut broken = source.clone();
        broken.set(2, 1, f32::NAN);
        let pipeline = AlgorithmPreset::Hungarian.build();
        let report = pipeline.execute(&broken, &source, &MatchContext::default());
        let assignment = report.matching.assignment();
        assert_eq!(assignment[2], None);
        for (i, pick) in assignment.iter().enumerate() {
            if i != 2 {
                assert_eq!(*pick, Some(i as u32), "row {i}");
            }
        }
    }

    fn random(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0f32..1.0))
    }

    #[test]
    fn same_matching_as_the_eager_oracle_on_continuous_scores() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut shapes: Vec<(usize, usize)> = (0..60)
            .map(|_| (rng.gen_range(1..40usize), rng.gen_range(1..40usize)))
            .collect();
        shapes.extend([(300, 300), (200, 300), (300, 200), (97, 256), (256, 97)]);
        for (rows, cols) in shapes {
            let s = random(&mut rng, rows, cols);
            assert_eq!(run(&s), oracle(&s), "{rows}x{cols}");
        }
    }

    #[test]
    fn same_total_as_the_eager_oracle_on_tied_scores() {
        let mut rng = StdRng::seed_from_u64(43);
        for case in 0..200 {
            let (rows, cols) = (rng.gen_range(1..30usize), rng.gen_range(1..30usize));
            // Quarter steps: ties everywhere, every sum exact.
            let s = Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0..5u32) as f32 * 0.25);
            let (got, want) = (run(&s), oracle(&s));
            assert!(got.is_injective(), "case {case}");
            assert_eq!(got.matched_count(), rows.min(cols), "case {case}");
            assert_eq!(total_score(&s, &got), total_score(&s, &want), "case {case}");
        }
    }
    /// Asserts that `solve` and the slot-order oracle return the same
    /// assignment, both directions, for `scores` oriented as `run` does.
    fn assert_same_as_slot_order(scores: &Matrix, label: &str) {
        let (n_s, n_t) = scores.shape();
        let data = scores.as_slice();
        let (got, want) = if n_s <= n_t {
            let rows = ByRow { data, m: n_t };
            (solve(&rows, n_s, n_t).0, slot_order_solve(&rows, n_s, n_t))
        } else {
            let cols = ByCol { data, stride: n_t };
            (solve(&cols, n_t, n_s).0, slot_order_solve(&cols, n_t, n_s))
        };
        assert_eq!(got.row_col, want.row_col, "{label}: row to column");
        assert_eq!(got.col_row, want.col_row, "{label}: column to row");
    }

    /// Quarter steps in [0, 1]: ties everywhere, every sum exact.
    fn quarter_steps(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(0..5u32) as f32 * 0.25)
    }

    #[test]
    fn same_assignment_as_the_slot_order_scan_on_tied_scores() {
        let mut rng = StdRng::seed_from_u64(47);
        let mut shapes: Vec<(usize, usize)> = (0..300)
            .map(|_| (rng.gen_range(1..40usize), rng.gen_range(1..40usize)))
            .collect();
        shapes.extend([(300, 300), (200, 300), (300, 200)]);
        for (case, (rows, cols)) in shapes.into_iter().enumerate() {
            let s = quarter_steps(&mut rng, rows, cols);
            assert_same_as_slot_order(&s, &format!("case {case}: {rows}x{cols}"));
        }
    }

    #[test]
    fn same_assignment_as_the_slot_order_scan_on_every_shape_and_hole() {
        // Widths on both sides of the mask's 64-column words, and short of
        // and past its 4-column blocks.
        const WIDTHS: [usize; 11] = [1, 2, 3, 5, 7, 63, 64, 65, 127, 128, 129];
        let (nan, inf) = (f32::NAN, f32::INFINITY);
        let mut rng = StdRng::seed_from_u64(53);
        for w in WIDTHS {
            let shapes = [(1, w), (w, 1), (w / 2 + 1, w), (w, w), (w + 6, w)];
            for (rows, cols) in shapes {
                for hole in ["none", "nan cells", "-inf lines", "+inf cells"] {
                    let s = Matrix::from_fn(rows, cols, |r, c| {
                        let v = rng.gen_range(0..5u32) as f32 * 0.25;
                        match hole {
                            "nan cells" if rng.gen_range(0..6u32) == 0 => nan,
                            "-inf lines" if r % 5 == 2 || c % 7 == 3 => -inf,
                            "+inf cells" if rng.gen_range(0..40u32) == 0 => inf,
                            _ => v,
                        }
                    });
                    assert_same_as_slot_order(&s, &format!("{rows}x{cols}, {hole}"));
                }
            }
        }
    }

    #[test]
    fn scan_counts_are_exact_and_reach_the_trace() {
        // Row 0 takes column 0 in one min pass. Row 1 wants column 0 too:
        // a second pass readies it, scanning row 0 relaxes column 1, and a
        // third pass reaches that free column.
        let s = Matrix::from_vec(2, 2, vec![0.9, 0.5, 0.8, 0.2]).unwrap();
        let rows = ByRow {
            data: s.as_slice(),
            m: 2,
        };
        let counts = ScanCounts {
            row_scans: 1,
            min_passes: 3,
            col_hits: 1,
        };
        assert_eq!(solve(&rows, 2, 2).1, counts);

        let registry: &telemetry::Telemetry = Box::leak(Box::default());
        registry.set_enabled(true);
        let _installed = registry.install();
        run(&s);
        let trace = registry.snapshot();
        for (name, want) in [
            ("hungarian.row_scans", counts.row_scans),
            ("hungarian.min_passes", counts.min_passes),
            ("hungarian.col_hits", counts.col_hits),
        ] {
            assert!(trace.counter(name).unwrap_or(0) >= want, "{name}");
        }
    }
}
