//! Cache-blocked `A * B^T` against one packed right operand, at any
//! storage precision.
//!
//! The naive kernel in [`crate::ops`] computes each output element as an
//! independent sequential dot product. That formulation has two costs at
//! scale: the reduction over `d` is a serial FP dependency chain (no SIMD —
//! f32 addition is not associative, so LLVM cannot reassociate it), and the
//! whole `B` operand is streamed from memory once per `A` row.
//!
//! This module restructures the computation the BLIS way:
//!
//! * **Packing** — `B` is repacked once into a [`PackedAny`]: strips of
//!   [`NR`] consecutive `B` rows, transposed so that for each depth index
//!   `d` the `NR` values `B[j..j+NR][d]` are contiguous
//!   (`payload[s*d*NR + d*NR + l] = B[s*NR + l][d]`, tail lanes
//!   zero-padded). The payload is f32, f16, or int8 with one scale per
//!   lane ([`Precision`]); one strip packer serves every precision, both
//!   for a resident matrix ([`PackedAny::pack`]) and for row chunks
//!   streamed from disk ([`PackedBuilder`], [`pack_snapshot_stream`]).
//!   A strip depends only on its own `NR` rows, so the builder carries
//!   at most `NR - 1` rows between appends.
//! * **Register tiling** — one tile loop, generic over the register-block
//!   height, keeps an `MR x NR` accumulator block in registers and walks
//!   the full depth once per tile. Remainder row groups clamp their
//!   trailing row pointers to the last valid row (the duplicate rows are
//!   computed but not stored), so every micro-kernel is a single
//!   fixed-arity loop. SIMD runs *across the `NR` output columns*, never
//!   across `d`: each accumulator lane sums its column strictly in `d`
//!   order, so every output element is **bit-identical** to the naive
//!   sequential `dot` of the same rows (of the dequantized rows, for f16
//!   and int8). The scalar reference runs [`MR`] rows; the AVX2 kernels in
//!   [`crate::simd`] run [`crate::simd::MR_SIMD`] and dequantize inside the
//!   register block, so an f32 copy of a quantized operand never exists.
//! * **Cache blocking** — panels of [`PANEL_BYTES`] worth of packed strips
//!   stay resident in L2 while every row block of the worker's chunk is
//!   streamed against them, so `B` traffic drops from `m` passes to
//!   `m / chunk_rows` passes. Panels are sized by element width, so
//!   narrower payloads keep more strips hot.
//!
//! Telemetry (when enabled): `gemm.tiles` (micro-kernel invocations),
//! `gemm.panels` (L2 panel passes); f32 packs record `gemm.packed_bytes`,
//! f16/int8 packs a `quant.pack` span with `quant.packed_bytes` and
//! `quant.rows`; snapshot streaming adds `quant.stream.chunks`.

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::parallel::{par_row_chunks_mut_grained, Grain};
use crate::quant::{
    f16_bits_to_f32, f32_to_f16_bits, int8_row_scale, quantize_value_int8, Precision,
};
use crate::simd::SimdLevel;
use crate::snapshot::SnapshotReader;
use crate::Result;
use entmatcher_support::telemetry;
use std::ops::Range;

/// Rows of `A` per scalar register tile.
pub const MR: usize = 4;

/// Rows of `B` (output columns) per packed strip / register tile. Eight
/// f32 lanes map onto one 256-bit vector register.
pub const NR: usize = 8;

/// Target bytes of packed `B` kept hot per cache panel (~half a typical
/// 512 KiB L2, leaving room for the `A` row block and the output tile).
pub const PANEL_BYTES: usize = 256 * 1024;

/// Packed strips at the operand's storage precision.
#[derive(Debug, Clone)]
enum Payload {
    F32(Vec<f32>),
    F16(Vec<u16>),
    /// int8 values plus one scale per lane: `scales[s*NR + l]` is row
    /// `s*NR + l`'s scale (0 on padded lanes), so a micro-kernel loads a
    /// strip's scales once for the whole depth walk.
    Int8(Vec<i8>, Vec<f32>),
}

impl Payload {
    fn new(precision: Precision) -> Payload {
        match precision {
            Precision::F32 => Payload::F32(Vec::new()),
            Precision::F16 => Payload::F16(Vec::new()),
            Precision::Int8 => Payload::Int8(Vec::new(), Vec::new()),
        }
    }

    /// Appends `rows` rows of `src` (row-major, `rows * d` values) as
    /// `rows.div_ceil(NR)` strips.
    fn push_strips(&mut self, src: &[f32], rows: usize, d: usize) {
        match self {
            Payload::F32(p) => pack_strips(p, src, rows, d, |_, v| v),
            Payload::F16(p) => pack_strips(p, src, rows, d, |_, v| f32_to_f16_bits(v)),
            Payload::Int8(p, scales) => {
                let base = scales.len();
                scales.extend((0..rows.div_ceil(NR) * NR).map(|r| {
                    if r < rows {
                        int8_row_scale(&src[r * d..(r + 1) * d])
                    } else {
                        0.0
                    }
                }));
                let lanes = &scales[base..];
                pack_strips(p, src, rows, d, |r, v| quantize_value_int8(v, lanes[r]));
            }
        }
    }
}

/// The strip packer every precision shares: appends `rows.div_ceil(NR)`
/// strips to `out`, lane `l` of strip `s` holding `conv(row, value)` for
/// row `s*NR + l` of `src`; lanes past `rows` stay zero. Strips fill in
/// parallel on the pool.
fn pack_strips<T: Copy + Default + Send>(
    out: &mut Vec<T>,
    src: &[f32],
    rows: usize,
    d: usize,
    conv: impl Fn(usize, f32) -> T + Sync,
) {
    let start = out.len();
    out.resize(start + rows.div_ceil(NR) * d * NR, T::default());
    if out.len() == start {
        return;
    }
    let grain = Grain::for_item_cost(d * NR);
    par_row_chunks_mut_grained(&mut out[start..], d * NR, grain, |strip0, chunk| {
        for (si, strip) in chunk.chunks_exact_mut(d * NR).enumerate() {
            let s = strip0 + si;
            for l in 0..NR.min(rows - s * NR) {
                let r = s * NR + l;
                for (dd, &v) in src[r * d..(r + 1) * d].iter().enumerate() {
                    strip[dd * NR + l] = conv(r, v);
                }
            }
        }
    });
}

/// `B` packed into transposed [`NR`]-row strips at any [`Precision`] —
/// the right operand of every blocked product and fused scan, and what
/// IVF posting lists and the serving index store.
#[derive(Debug, Clone)]
pub struct PackedAny {
    payload: Payload,
    /// Valid (unpadded) row count of the original `B`.
    n: usize,
    /// Shared depth (columns of `A` and `B`).
    d: usize,
}

impl PackedAny {
    /// Packs `b` (an `n x d` row-major matrix) at `precision`. Strip
    /// packing runs on the persistent pool.
    pub fn pack(b: &Matrix, precision: Precision) -> PackedAny {
        let mut span = (precision != Precision::F32).then(|| telemetry::span("quant.pack"));
        let mut builder = PackedBuilder::with_capacity(precision, b.cols(), b.rows());
        builder
            .append(b)
            .expect("builder width is the matrix width");
        let packed = builder.finish();
        if let Some(span) = span.as_mut() {
            span.add_bytes(packed.packed_bytes() as u64);
        }
        packed
    }

    /// Storage precision of the payload.
    pub fn precision(&self) -> Precision {
        match self.payload {
            Payload::F32(_) => Precision::F32,
            Payload::F16(_) => Precision::F16,
            Payload::Int8(..) => Precision::Int8,
        }
    }

    /// Valid row count of the packed operand.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shared depth of the packed operand.
    #[inline]
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of [`NR`]-row strips (including the zero-padded tail strip).
    #[inline]
    pub fn strips(&self) -> usize {
        self.n.div_ceil(NR)
    }

    /// Heap bytes held by the packed payload (+ scales for int8): `d*4`
    /// per row at f32, `d*2` at f16, `d + 4` at int8.
    pub fn packed_bytes(&self) -> usize {
        match &self.payload {
            Payload::F32(p) => p.len() * 4,
            Payload::F16(p) => p.len() * 2,
            Payload::Int8(p, scales) => p.len() + scales.len() * 4,
        }
    }

    /// Strips per L2 cache panel, sized by the *element width*.
    #[inline]
    pub fn panel_strips(&self) -> usize {
        let strip_bytes = self.d.saturating_mul(NR * self.precision().elem_bytes());
        (PANEL_BYTES / strip_bytes.max(1)).max(1)
    }

    /// Computes the tile `A[rows] x strips` into `out` (row-major, stride
    /// `out_stride`, column 0 = output column `col_base`; tail lanes past
    /// `n` trimmed) on the micro-kernel `level` selects for this payload.
    /// Quantized payloads have no FMA kernel (FMA requests run AVX2) and
    /// f16 needs F16C. Returns micro-kernel invocations.
    fn block_into(&self, tile: Tile<'_>, level: SimdLevel) -> u64 {
        let len = self.d * NR;
        #[cfg(target_arch = "x86_64")]
        {
            use crate::simd::{self, MR_SIMD};
            // SAFETY (every arm): callers pass a `level` from
            // `clamp_supported`, so the CPU has AVX2 (and FMA for `Fma`);
            // the f16 arm checks F16C; callers check `a.cols() == d`, so
            // every row of `A` has `strip.len() / NR` elements.
            match (&self.payload, level) {
                (Payload::F32(p), SimdLevel::Avx2) => {
                    return tile.run::<MR_SIMD>(self.n, |rows, s, acc| unsafe {
                        simd::micro_avx2(rows, &p[s * len..(s + 1) * len], acc)
                    })
                }
                (Payload::F32(p), SimdLevel::Fma) => {
                    return tile.run::<MR_SIMD>(self.n, |rows, s, acc| unsafe {
                        simd::micro_fma(rows, &p[s * len..(s + 1) * len], acc)
                    })
                }
                (Payload::F16(p), SimdLevel::Avx2 | SimdLevel::Fma) if simd::has_f16c() => {
                    return tile.run::<MR_SIMD>(self.n, |rows, s, acc| unsafe {
                        simd::micro_avx2_f16(rows, &p[s * len..(s + 1) * len], acc)
                    })
                }
                (Payload::Int8(p, scales), SimdLevel::Avx2 | SimdLevel::Fma) => {
                    return tile.run::<MR_SIMD>(self.n, |rows, s, acc| unsafe {
                        simd::micro_avx2_i8(
                            rows,
                            &p[s * len..(s + 1) * len],
                            lane_scales(scales, s),
                            acc,
                        )
                    })
                }
                _ => {}
            }
        }
        let _ = level;
        match &self.payload {
            Payload::F32(p) => tile.run::<MR>(self.n, |rows, s, acc| {
                micro_scalar(rows, &p[s * len..(s + 1) * len], |v, _| v, acc)
            }),
            Payload::F16(p) => tile.run::<MR>(self.n, |rows, s, acc| {
                micro_scalar(
                    rows,
                    &p[s * len..(s + 1) * len],
                    |v, _| f16_bits_to_f32(v),
                    acc,
                )
            }),
            Payload::Int8(p, scales) => tile.run::<MR>(self.n, |rows, s, acc| {
                let sc = lane_scales(scales, s);
                micro_scalar(
                    rows,
                    &p[s * len..(s + 1) * len],
                    |q, l| q as f32 * sc[l],
                    acc,
                )
            }),
        }
    }
}

/// Strip `s`'s per-lane int8 scales.
#[inline]
fn lane_scales(scales: &[f32], s: usize) -> &[f32; NR] {
    scales[s * NR..(s + 1) * NR]
        .try_into()
        .expect("NR scales per strip")
}

/// The scalar reference micro-kernel: `MRV` rows of `A` against one strip
/// whose depth chunks `deq(value, lane)` widens to f32 (identity for f32,
/// exact conversion for f16, `q * scale` for int8). Each accumulator lane
/// walks depth in strict order with a separate multiply and add — the
/// per-lane operation sequence of the AVX2 kernels, hence bitwise equal.
#[inline(always)]
fn micro_scalar<const MRV: usize, T: Copy>(
    a_rows: &[&[f32]; MRV],
    strip: &[T],
    deq: impl Fn(T, usize) -> f32,
    acc: &mut [[f32; NR]; MRV],
) {
    for (dd, chunk) in strip.chunks_exact(NR).enumerate() {
        let b: [f32; NR] = std::array::from_fn(|l| deq(chunk[l], l));
        for i in 0..MRV {
            let av = a_rows[i][dd];
            for l in 0..NR {
                acc[i][l] += av * b[l];
            }
        }
    }
}

/// One tile request: rows `rows` of `a` against packed strips `strips`,
/// stored into `out` (stride `out_stride`, column 0 = output column
/// `col_base`).
struct Tile<'a> {
    a: &'a Matrix,
    rows: Range<usize>,
    strips: Range<usize>,
    out: &'a mut [f32],
    out_stride: usize,
    col_base: usize,
}

impl Tile<'_> {
    /// The tile loop: `MRV`-row register blocks against every strip, with
    /// trailing row pointers clamped to the last valid row, and
    /// `kernel(rows, strip, acc)` as the micro-kernel. Columns past `n`
    /// are not stored. Returns micro-kernel invocations.
    #[inline(always)]
    fn run<const MRV: usize>(
        self,
        n: usize,
        kernel: impl Fn(&[&[f32]; MRV], usize, &mut [[f32; NR]; MRV]),
    ) -> u64 {
        let (row0, rows) = (self.rows.start, self.rows.len());
        let mut r = 0usize;
        while r < rows {
            let mr = MRV.min(rows - r);
            let a_rows: [&[f32]; MRV] =
                std::array::from_fn(|i| self.a.row(row0 + r + i.min(mr - 1)));
            for s in self.strips.clone() {
                let mut acc = [[0.0f32; NR]; MRV];
                kernel(&a_rows, s, &mut acc);
                let col = s * NR;
                let valid = NR.min(n - col);
                for (i, lanes) in acc.iter().enumerate().take(mr) {
                    let dst = (r + i) * self.out_stride + (col - self.col_base);
                    self.out[dst..dst + valid].copy_from_slice(&lanes[..valid]);
                }
            }
            r += mr;
        }
        (rows.div_ceil(MRV) * self.strips.len()) as u64
    }
}

/// Incrementally packs row chunks into a [`PackedAny`] without ever
/// holding the full f32 operand: each append packs its full strips
/// straight from the chunk, and only the `< NR` rows past the last full
/// strip are carried to the next append. Aux memory above the packed
/// output is O(NR · d).
#[derive(Debug)]
pub struct PackedBuilder {
    payload: Payload,
    d: usize,
    /// Rows appended so far.
    rows: usize,
    /// The `rows % NR` rows past the last full strip (row-major f32).
    carry: Vec<f32>,
}

impl PackedBuilder {
    /// Starts a builder for `d`-dimensional rows at `precision`.
    pub fn new(precision: Precision, d: usize) -> PackedBuilder {
        PackedBuilder::with_capacity(precision, d, 0)
    }

    /// Starts a builder pre-reserving payload for `rows_hint` total rows
    /// (e.g. from a snapshot header), so appends never reallocate. A hint
    /// the allocator cannot meet is ignored and the payload grows as rows
    /// arrive.
    pub fn with_capacity(precision: Precision, d: usize, rows_hint: usize) -> PackedBuilder {
        let lanes = rows_hint.div_ceil(NR).saturating_mul(NR);
        let elems = lanes.saturating_mul(d);
        let mut payload = Payload::new(precision);
        let _ = match &mut payload {
            Payload::F32(p) => p.try_reserve_exact(elems),
            Payload::F16(p) => p.try_reserve_exact(elems),
            Payload::Int8(p, scales) => p
                .try_reserve_exact(elems)
                .and_then(|()| scales.try_reserve_exact(lanes)),
        };
        PackedBuilder {
            payload,
            d,
            rows: 0,
            carry: Vec::new(),
        }
    }

    /// Rows appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Appends a chunk of rows (its column count must match `d`).
    pub fn append(&mut self, chunk: &Matrix) -> Result<()> {
        let d = self.d;
        if chunk.cols() != d {
            return Err(LinalgError::DimMismatch {
                op: "pack_append",
                left: (self.rows, d),
                right: chunk.shape(),
            });
        }
        let (mut src, mut rows) = (chunk.as_slice(), chunk.rows());
        let carried = self.rows % NR;
        self.rows += rows;
        if carried > 0 {
            // Top the carry up to one full strip before packing the rest.
            let take = rows.min(NR - carried);
            self.carry.extend_from_slice(&src[..take * d]);
            (src, rows) = (&src[take * d..], rows - take);
            if carried + take < NR {
                return Ok(());
            }
            self.payload.push_strips(&self.carry, NR, d);
            self.carry.clear();
        }
        let full = rows / NR * NR;
        self.payload.push_strips(&src[..full * d], full, d);
        self.carry.extend_from_slice(&src[full * d..]);
        Ok(())
    }

    /// Finishes the operand, packing the carried rows into a final
    /// zero-padded strip, and records the pack's byte counters.
    pub fn finish(mut self) -> PackedAny {
        let tail = self.rows % NR;
        if tail > 0 {
            self.payload.push_strips(&self.carry, tail, self.d);
        }
        let packed = PackedAny {
            payload: self.payload,
            n: self.rows,
            d: self.d,
        };
        let bytes = packed.packed_bytes() as u64;
        if packed.precision() == Precision::F32 {
            telemetry::add("gemm.packed_bytes", bytes);
        } else {
            telemetry::add("quant.rows", packed.n as u64);
            telemetry::add("quant.packed_bytes", bytes);
        }
        packed
    }
}

/// Streams a snapshot file into a packed operand in `chunk_rows`-row
/// chunks: each chunk is read, packed on the pool, and dropped, so aux
/// memory above the packed output is O(chunk), independent of snapshot
/// size. Emits a `quant.pack` span with `quant.stream.chunks`.
pub fn pack_snapshot_stream(
    path: &std::path::Path,
    precision: Precision,
    chunk_rows: usize,
) -> Result<PackedAny> {
    let mut span = telemetry::span("quant.pack");
    let mut reader = SnapshotReader::open(path)?;
    let mut builder = PackedBuilder::with_capacity(precision, reader.cols(), reader.rows());
    let mut chunks = 0u64;
    while let Some(chunk) = reader.next_chunk(chunk_rows.max(1))? {
        builder.append(&chunk)?;
        chunks += 1;
    }
    telemetry::add("quant.stream.chunks", chunks);
    let packed = builder.finish();
    span.add_bytes(packed.packed_bytes() as u64);
    Ok(packed)
}

/// Blocked `A * B^T` against a pre-packed right operand, using the
/// process-wide SIMD dispatch decision ([`crate::simd::active`]).
pub fn matmul_blocked_packed(a: &Matrix, packed: &PackedAny) -> Result<Matrix> {
    matmul_blocked_packed_with(a, packed, crate::simd::active())
}

/// Blocked `A * B^T` against a pre-packed right operand with an explicit
/// micro-kernel level — the entry point for scalar-vs-SIMD equivalence
/// tests and benchmarks. The output chunk rows are parallelized on the
/// persistent pool; within each task the packed panels loop outermost so
/// each panel is read from L2, not memory.
pub fn matmul_blocked_packed_with(
    a: &Matrix,
    packed: &PackedAny,
    level: SimdLevel,
) -> Result<Matrix> {
    let level = crate::simd::clamp_supported(level);
    if a.cols() != packed.d() {
        return Err(LinalgError::DimMismatch {
            op: "matmul_blocked",
            left: a.shape(),
            right: (packed.n(), packed.d()),
        });
    }
    let (m, n) = (a.rows(), packed.n());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 {
        return Ok(out);
    }
    let panel = packed.panel_strips();
    let strips = packed.strips();
    let tiles = std::sync::atomic::AtomicU64::new(0);
    let panels = std::sync::atomic::AtomicU64::new(0);
    // One output row costs n * d flops; never split tasks below the
    // register-block height so every task runs full-width tiles.
    let grain =
        Grain::for_item_cost(n.saturating_mul(packed.d().max(1))).at_least(crate::simd::MR_SIMD);
    par_row_chunks_mut_grained(out.as_mut_slice(), n, grain, |start_row, chunk| {
        let rows = chunk.len() / n;
        let mut local_tiles = 0u64;
        let mut local_panels = 0u64;
        let mut s0 = 0usize;
        while s0 < strips {
            let s1 = (s0 + panel).min(strips);
            let tile = Tile {
                a,
                rows: start_row..start_row + rows,
                strips: s0..s1,
                out: &mut *chunk,
                out_stride: n,
                col_base: 0,
            };
            local_tiles += packed.block_into(tile, level);
            local_panels += 1;
            s0 = s1;
        }
        tiles.fetch_add(local_tiles, std::sync::atomic::Ordering::Relaxed);
        panels.fetch_add(local_panels, std::sync::atomic::Ordering::Relaxed);
    });
    telemetry::add("gemm.tiles", tiles.into_inner());
    telemetry::add("gemm.panels", panels.into_inner());
    Ok(out)
}

/// Blocked `A * B^T`: packs `B` at f32 and multiplies. Drop-in
/// replacement for the naive kernel — see the module docs for why
/// results are bit-identical.
pub fn matmul_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    matmul_blocked_with(a, b, crate::simd::active())
}

/// [`matmul_blocked`] with an explicit micro-kernel level (see
/// [`matmul_blocked_packed_with`]).
pub fn matmul_blocked_with(a: &Matrix, b: &Matrix, level: SimdLevel) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(LinalgError::DimMismatch {
            op: "matmul_blocked",
            left: a.shape(),
            right: b.shape(),
        });
    }
    matmul_blocked_packed_with(a, &PackedAny::pack(b, Precision::F32), level)
}

/// Computes the scores tile `A[row0..row0+rows] x strips[s0..s1]` into the
/// caller's scratch buffer (`rows x (s1-s0)*NR` row-major, tail columns
/// trimmed to `packed.n()`) at the already clamped `level`; used by the
/// fused streaming kernels, which reduce the tile immediately instead of
/// materializing the full matrix. Returns the valid (trimmed) tile width
/// and the micro-kernel invocations.
pub(crate) fn tile_into(
    a: &Matrix,
    rows: Range<usize>,
    packed: &PackedAny,
    strips: Range<usize>,
    scratch: &mut [f32],
    level: SimdLevel,
) -> (usize, u64) {
    let col_base = strips.start * NR;
    let width = packed.n().min(strips.end * NR) - col_base;
    let out_stride = strips.len() * NR;
    debug_assert!(scratch.len() >= rows.len() * out_stride);
    let tile = Tile {
        a,
        rows,
        strips,
        out: scratch,
        out_stride,
        col_base,
    };
    (width, packed.block_into(tile, level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{dot, matmul_naive};
    use crate::quant::quantize_roundtrip;

    fn seq_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + salt * 7) % 23) as f32 - 11.0) * 0.25
        })
    }

    const PRECISIONS: [Precision; 3] = [Precision::F32, Precision::F16, Precision::Int8];

    #[test]
    fn packed_layout_transposes_strips() {
        let b = seq_matrix(10, 3, 1);
        let p = PackedAny::pack(&b, Precision::F32);
        assert_eq!(p.strips(), 2);
        assert_eq!(p.n(), 10);
        let Payload::F32(data) = &p.payload else {
            panic!("f32 pack must hold an f32 payload")
        };
        // Element (row j, depth d) lives at strip j/NR, offset d*NR + j%NR.
        for j in 0..10 {
            for dd in 0..3 {
                assert_eq!(data[(j / NR) * 3 * NR + dd * NR + j % NR], b.get(j, dd));
            }
        }
        // Padded tail lanes are zero.
        for dd in 0..3 {
            for l in 2..NR {
                assert_eq!(data[3 * NR + dd * NR + l], 0.0);
            }
        }
    }

    #[test]
    fn blocked_is_bitwise_equal_to_naive() {
        // Sequential d-order accumulation makes the blocked kernel exactly
        // reproduce the naive dot, not just approximately.
        let a = seq_matrix(13, 19, 0);
        let b = seq_matrix(21, 19, 5);
        let blocked = matmul_blocked(&a, &b).unwrap();
        let naive = matmul_naive(&a, &b).unwrap();
        assert_eq!(blocked, naive);
        for i in [0usize, 12] {
            for j in [0usize, 7, 20] {
                assert_eq!(blocked.get(i, j), dot(a.row(i), b.row(j)));
            }
        }
    }

    #[test]
    fn blocked_checks_inner_dim() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 4);
        assert!(matmul_blocked(&a, &b).is_err());
    }

    #[test]
    fn empty_shapes_yield_empty_outputs() {
        for (m, n, d) in [(0usize, 5usize, 3usize), (5, 0, 3), (5, 5, 0), (0, 0, 0)] {
            let a = Matrix::zeros(m, d);
            let b = Matrix::zeros(n, d);
            let out = matmul_blocked(&a, &b).unwrap();
            assert_eq!(out.shape(), (m, n));
            assert!(out.as_slice().iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn tile_into_matches_full_product() {
        let a = seq_matrix(9, 11, 2);
        let b = seq_matrix(20, 11, 3);
        for precision in PRECISIONS {
            let packed = PackedAny::pack(&b, precision);
            let full = matmul_blocked_packed(&a, &packed).unwrap();
            // Tile covering strips 1..3 => columns 8..20 (trimmed at n = 20).
            let stride = 2 * NR;
            let mut scratch = vec![0.0f32; 4 * stride];
            let level = crate::simd::clamp_supported(crate::simd::active());
            let (width, _) = tile_into(&a, 3..7, &packed, 1..3, &mut scratch, level);
            assert_eq!(width, 12);
            for r in 0..4 {
                for c in 0..width {
                    assert_eq!(scratch[r * stride + c], full.get(3 + r, 8 + c));
                }
            }
        }
    }

    #[test]
    fn panel_strips_is_positive_even_for_huge_depth() {
        let b = Matrix::zeros(2, 1_000_000);
        assert!(PackedAny::pack(&b, Precision::F32).panel_strips() >= 1);
    }

    #[test]
    fn quantized_gemm_equals_dense_product_of_roundtripped_operand() {
        // The dequantize-fused kernel must produce exactly the scores of a
        // full-precision GEMM against the dequantized operand — fusion
        // changes memory traffic, never values.
        let a = seq_matrix(13, 19, 0);
        let b = seq_matrix(21, 19, 5);
        for precision in [Precision::F16, Precision::Int8] {
            let fused = matmul_blocked_packed(&a, &PackedAny::pack(&b, precision)).unwrap();
            let reference = matmul_blocked(&a, &quantize_roundtrip(&b, precision)).unwrap();
            assert_eq!(fused, reference, "{}", precision.name());
        }
    }

    #[test]
    fn panel_strips_scale_with_element_width() {
        let b = seq_matrix(64, 128, 1);
        let strips = PRECISIONS.map(|p| PackedAny::pack(&b, p).panel_strips());
        assert_eq!(strips[1], strips[0] * 2);
        assert_eq!(strips[2], strips[0] * 4);
    }

    #[test]
    fn packed_bytes_shrink_by_element_width() {
        let b = seq_matrix(512, 64, 2);
        let [f32_bytes, f16_bytes, i8_bytes] =
            PRECISIONS.map(|p| PackedAny::pack(&b, p).packed_bytes() as f64);
        assert_eq!(f16_bytes, f32_bytes / 2.0);
        assert!(
            f32_bytes / i8_bytes >= 3.5,
            "int8 ratio {}",
            f32_bytes / i8_bytes
        );
    }

    #[test]
    fn builder_matches_one_shot_pack_across_chunkings() {
        // Includes the d = 0 operand, whose rows the builder must still
        // count although no value is ever carried.
        for (n, d) in [(53usize, 11usize), (5, 0)] {
            let b = seq_matrix(n, d, 7);
            let a = seq_matrix(9, d, 8);
            for precision in PRECISIONS {
                let one_shot = PackedAny::pack(&b, precision);
                assert_eq!(one_shot.n(), n);
                let reference = matmul_blocked_packed(&a, &one_shot).unwrap();
                // Chunk sizes that are strip-aligned, misaligned, and > n.
                for chunk in [1usize, 5, 8, 24, 100] {
                    let mut builder = PackedBuilder::with_capacity(precision, d, n);
                    let mut r = 0;
                    while r < n {
                        let rows = chunk.min(n - r);
                        builder
                            .append(&Matrix::from_fn(rows, d, |i, c| b.get(r + i, c)))
                            .unwrap();
                        r += rows;
                    }
                    assert_eq!(builder.rows(), n);
                    let packed = builder.finish();
                    assert_eq!(packed.n(), n, "{} chunk={chunk}", precision.name());
                    assert_eq!(packed.packed_bytes(), one_shot.packed_bytes());
                    assert_eq!(
                        matmul_blocked_packed(&a, &packed).unwrap(),
                        reference,
                        "{} chunk={chunk}",
                        precision.name()
                    );
                }
            }
        }
    }

    #[test]
    fn builder_rejects_width_mismatch_and_handles_empty() {
        let mut builder = PackedBuilder::new(Precision::Int8, 4);
        assert!(builder.append(&Matrix::zeros(2, 5)).is_err());
        builder.append(&Matrix::zeros(0, 4)).unwrap();
        let packed = builder.finish();
        assert_eq!(packed.n(), 0);
        assert_eq!(packed.packed_bytes(), 0);
    }

    #[test]
    fn snapshot_stream_pack_equals_in_memory_pack() {
        let dir = std::env::temp_dir().join(format!("entmatcher-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stream.emb");
        for (n, d) in [(41usize, 7usize), (5, 0)] {
            let b = seq_matrix(n, d, 9);
            let a = seq_matrix(6, d, 10);
            std::fs::write(&path, crate::snapshot::to_bytes(&b)).unwrap();
            for precision in PRECISIONS {
                let streamed = pack_snapshot_stream(&path, precision, 12).unwrap();
                let reference = PackedAny::pack(&b, precision);
                assert_eq!(streamed.n(), n);
                assert_eq!(streamed.n(), reference.n());
                assert_eq!(streamed.packed_bytes(), reference.packed_bytes());
                assert_eq!(
                    matmul_blocked_packed(&a, &streamed).unwrap(),
                    matmul_blocked_packed(&a, &reference).unwrap(),
                    "{} n={n} d={d}",
                    precision.name()
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
