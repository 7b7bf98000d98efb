//! Storage precisions and row quantization of embeddings.
//!
//! Embedding matchers die on RAM, not FLOPs, at DWY100K scale (paper
//! Table 6): the `B` operand of every similarity pass is `n x d` f32s that
//! must stay resident. [`Precision`] selects how a packed operand
//! ([`crate::gemm::PackedAny`]) stores it; f32 is just one more precision,
//! and the GEMM micro-kernels dequantize f16/int8 *inside the register
//! block*, so an f32 copy of a quantized operand never exists:
//!
//! * **f16** — bit-exact IEEE 754 binary16 conversion (round-to-nearest-
//!   even, subnormals, ±inf, NaN), hand-written so the crate stays
//!   zero-dependency. 2 bytes/element, ~1e-3 relative error.
//! * **int8** — per-row symmetric quantization: `scale = max|finite|/127`,
//!   `q = round(v/scale)` saturating to ±127, NaN → 0, ±inf clamps to the
//!   end of the scale. 1 byte/element + one f32 scale per row, max abs
//!   error `scale/2` within the row's range.
//!
//! The scalar and AVX2 kernels ([`crate::simd::micro_avx2_f16`] via F16C,
//! [`crate::simd::micro_avx2_i8`] via `cvtepi8_epi32`) perform the *same
//! per-lane operation sequence* (convert → scale-multiply → multiply →
//! add, each a single IEEE rounding) and are therefore bitwise identical
//! — the same discipline as [`crate::simd`]. The FMA opt-in applies only
//! to the f32 kernel (quantized kernels always use separate mul+add).
//!
//! [`QuantizedMatrix`] is the row-store counterpart of the packed operand,
//! used for accuracy round-trips ([`quantize_roundtrip`]).
//!
//! Telemetry (when enabled): `quant.pack` span, `quant.packed_bytes`,
//! `quant.rows`; `quant.dequant` span + `quant.dequant_bytes`.

use crate::matrix::Matrix;
use crate::parallel::{par_row_chunks_mut_grained, Grain};
use entmatcher_support::telemetry;

/// Storage precision for embedding operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32 — the reference, no quantization.
    #[default]
    F32,
    /// IEEE 754 binary16, bit-exact conversion. 2 bytes/element.
    F16,
    /// Per-row symmetric int8. 1 byte/element + one f32 scale per row.
    Int8,
}

impl Precision {
    /// Stable lowercase name (CLI values, telemetry and bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16 => "f16",
            Precision::Int8 => "int8",
        }
    }

    /// Parses a CLI-style name; `None` for anything unrecognized.
    pub fn parse(s: &str) -> Option<Precision> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "full" => Some(Precision::F32),
            "f16" | "half" => Some(Precision::F16),
            "int8" | "i8" => Some(Precision::Int8),
            _ => None,
        }
    }

    /// Payload bytes per element at this precision.
    pub fn elem_bytes(self) -> usize {
        match self {
            Precision::F32 => 4,
            Precision::F16 => 2,
            Precision::Int8 => 1,
        }
    }
}

// ---------------------------------------------------------------------------
// f16 conversion (zero-dependency, bit-exact binary16)
// ---------------------------------------------------------------------------

/// Converts an f32 to IEEE 754 binary16 bits with round-to-nearest-even.
/// Handles subnormals, overflow to ±inf, and NaN (payload truncated,
/// quietened, kept non-zero).
pub fn f32_to_f16_bits(v: f32) -> u16 {
    let bits = v.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x007F_FFFF;
    if exp == 0xFF {
        if mant == 0 {
            return sign | 0x7C00; // ±inf
        }
        // NaN: keep the top payload bits, force quiet, never collapse to inf.
        let payload = ((mant >> 13) as u16) | 0x0200;
        return sign | 0x7C00 | payload;
    }
    let e = exp - 127; // unbiased
    if e >= 16 {
        return sign | 0x7C00; // overflow -> inf
    }
    if e >= -14 {
        // Normal half: drop 13 mantissa bits with RNE (carry may roll the
        // exponent up to inf, which is exactly the right saturation).
        let mut out = (((e + 15) as u32) << 10) | (mant >> 13);
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    if e >= -25 {
        // Subnormal half: shift the full significand (implicit 1) right.
        let full = mant | 0x0080_0000;
        let shift = (13 + (-14 - e)) as u32; // 14..=24
        let mut out = full >> shift;
        let half = 1u32 << (shift - 1);
        let rem = full & ((1u32 << shift) - 1);
        if rem > half || (rem == half && (out & 1) == 1) {
            out += 1;
        }
        return sign | out as u16;
    }
    sign // underflow to ±0
}

/// Converts IEEE 754 binary16 bits to the exactly-representable f32.
/// Matches hardware `vcvtph2ps` bit-for-bit on every value class (binary16
/// to binary32 widening is exact; NaN payloads shift left by 13).
pub fn f16_bits_to_f32(bits: u16) -> f32 {
    let sign = ((bits as u32) & 0x8000) << 16;
    let exp = (bits >> 10) & 0x1F;
    let mant = (bits & 0x03FF) as u32;
    if exp == 0x1F {
        return f32::from_bits(sign | 0x7F80_0000 | (mant << 13));
    }
    if exp == 0 {
        if mant == 0 {
            return f32::from_bits(sign); // ±0
        }
        // Subnormal: mant * 2^-24, exact in f32 (mant < 2^10).
        let v = mant as f32 * f32::from_bits(0x3380_0000); // 2^-24
        return if sign != 0 { -v } else { v };
    }
    f32::from_bits(sign | ((exp as u32 + 112) << 23) | (mant << 13))
}

/// One f32 -> f16 -> f32 round trip (the value the dequantize-fused
/// kernels see for a stored element).
#[inline]
pub fn f16_roundtrip(v: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(v))
}

// ---------------------------------------------------------------------------
// int8 per-row symmetric quantization
// ---------------------------------------------------------------------------

/// The per-row symmetric scale: `max |finite value| / 127`. Rows with no
/// finite non-zero value get scale 0 (every element dequantizes to 0).
pub fn int8_row_scale(row: &[f32]) -> f32 {
    let mut max_abs = 0.0f32;
    for &v in row {
        if v.is_finite() {
            max_abs = max_abs.max(v.abs());
        }
    }
    max_abs / 127.0
}

/// Quantizes one value against a row scale: round-to-nearest, saturating
/// to ±127. NaN maps to 0; ±inf clamps to the end of the scale.
#[inline]
pub fn quantize_value_int8(v: f32, scale: f32) -> i8 {
    if scale == 0.0 || v.is_nan() {
        return 0;
    }
    let q = (v / scale).round();
    if q >= 127.0 {
        127
    } else if q <= -127.0 {
        -127
    } else {
        q as i8
    }
}

/// The dequantized value of one stored int8 element.
#[inline]
pub fn dequantize_value_int8(q: i8, scale: f32) -> f32 {
    q as f32 * scale
}

// ---------------------------------------------------------------------------
// QuantizedMatrix: row-store quantized embeddings
// ---------------------------------------------------------------------------

/// A row-major matrix stored at reduced precision: the row-store
/// counterpart of a quantized [`crate::gemm::PackedAny`], used for
/// accuracy round-trips.
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    precision: Precision,
    rows: usize,
    cols: usize,
    /// binary16 payload (`precision == F16`), else empty.
    h: Vec<u16>,
    /// int8 payload (`precision == Int8`), else empty.
    q: Vec<i8>,
    /// Per-row scales (`precision == Int8`), else empty.
    scales: Vec<f32>,
}

impl QuantizedMatrix {
    /// Quantizes a matrix. `precision` must not be [`Precision::F32`]
    /// (keep full-precision matrices as [`Matrix`]).
    pub fn quantize(m: &Matrix, precision: Precision) -> QuantizedMatrix {
        assert!(
            precision != Precision::F32,
            "QuantizedMatrix stores reduced precisions only"
        );
        let _span = telemetry::span("quant.pack");
        let (rows, cols) = m.shape();
        let mut out = QuantizedMatrix {
            precision,
            rows,
            cols,
            h: Vec::new(),
            q: Vec::new(),
            scales: Vec::new(),
        };
        match precision {
            Precision::F16 => {
                out.h = m.as_slice().iter().map(|&v| f32_to_f16_bits(v)).collect();
            }
            Precision::Int8 => {
                out.q = vec![0i8; rows * cols];
                out.scales = Vec::with_capacity(rows);
                for r in 0..rows {
                    let row = m.row(r);
                    let scale = int8_row_scale(row);
                    out.scales.push(scale);
                    let dst = &mut out.q[r * cols..(r + 1) * cols];
                    for (d, &v) in dst.iter_mut().zip(row.iter()) {
                        *d = quantize_value_int8(v, scale);
                    }
                }
            }
            Precision::F32 => unreachable!(),
        }
        telemetry::add("quant.rows", rows as u64);
        telemetry::add("quant.packed_bytes", out.heap_bytes() as u64);
        out
    }

    /// Storage precision.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Heap bytes held by the quantized buffers.
    pub fn heap_bytes(&self) -> usize {
        self.h.capacity() * 2 + self.q.capacity() + self.scales.capacity() * 4
    }

    /// Dequantizes row `r` into `out` (length `cols`).
    pub fn dequantize_row_into(&self, r: usize, out: &mut [f32]) {
        assert!(r < self.rows, "row {r} out of bounds ({})", self.rows);
        assert_eq!(out.len(), self.cols, "output length mismatch");
        match self.precision {
            Precision::F16 => {
                let src = &self.h[r * self.cols..(r + 1) * self.cols];
                for (o, &b) in out.iter_mut().zip(src.iter()) {
                    *o = f16_bits_to_f32(b);
                }
            }
            Precision::Int8 => {
                let scale = self.scales[r];
                let src = &self.q[r * self.cols..(r + 1) * self.cols];
                for (o, &qv) in out.iter_mut().zip(src.iter()) {
                    *o = dequantize_value_int8(qv, scale);
                }
            }
            Precision::F32 => unreachable!(),
        }
    }

    /// Dequantizes the whole matrix back to f32 (parallel on the pool).
    pub fn dequantize(&self) -> Matrix {
        let mut span = telemetry::span("quant.dequant");
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.rows > 0 && self.cols > 0 {
            let grain = Grain::for_item_cost(self.cols);
            let this = &*self;
            par_row_chunks_mut_grained(out.as_mut_slice(), self.cols, grain, |start, chunk| {
                for (i, dst) in chunk.chunks_exact_mut(this.cols).enumerate() {
                    this.dequantize_row_into(start + i, dst);
                }
            });
        }
        span.add_bytes((self.rows * self.cols * 4) as u64);
        telemetry::add("quant.dequant_bytes", (self.rows * self.cols * 4) as u64);
        out
    }
}

/// Quantizes then dequantizes `m` at `precision` — the f32 matrix the
/// dequantize-fused kernels effectively operate on. [`Precision::F32`]
/// returns a plain clone.
pub fn quantize_roundtrip(m: &Matrix, precision: Precision) -> Matrix {
    match precision {
        Precision::F32 => m.clone(),
        _ => QuantizedMatrix::quantize(m, precision).dequantize(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| {
            (((r * 31 + c * 17 + salt * 7) % 23) as f32 - 11.0) * 0.25
        })
    }

    #[test]
    fn f16_conversion_hits_known_bit_patterns() {
        // Exactly representable values survive the round trip bit-for-bit.
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, -2.5, 65504.0, 6.1035156e-5] {
            assert_eq!(f16_roundtrip(v).to_bits(), v.to_bits(), "v={v}");
        }
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        // Smallest subnormal half = 2^-24.
        assert_eq!(f32_to_f16_bits(5.9604645e-8), 0x0001);
        assert_eq!(f16_bits_to_f32(0x0001), 5.9604645e-8);
        // Overflow saturates to inf; inf stays inf; NaN stays NaN.
        assert_eq!(f32_to_f16_bits(1.0e6), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(f32::NEG_INFINITY), 0xFC00);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // 65520 is the round-to-nearest-even boundary to inf.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7C00);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(65519.0)), 65504.0);
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1 + 2^-11 sits exactly between 1.0 and the next half (1 + 2^-10):
        // RNE picks the even mantissa, i.e. 1.0.
        assert_eq!(f32_to_f16_bits(1.0 + 0.00048828125), 0x3C00);
        // 1 + 3*2^-11 sits between 1+2^-10 and 1+2^-9: RNE picks 1+2^-9.
        assert_eq!(f32_to_f16_bits(1.0 + 3.0 * 0.00048828125), 0x3C02);
    }

    #[test]
    fn int8_error_is_bounded_by_half_scale() {
        let m = seq_matrix(17, 33, 3);
        let q = QuantizedMatrix::quantize(&m, Precision::Int8);
        let back = q.dequantize();
        for r in 0..m.rows() {
            let scale = int8_row_scale(m.row(r));
            for c in 0..m.cols() {
                let err = (m.get(r, c) - back.get(r, c)).abs();
                assert!(
                    err <= scale * 0.50005 + 1e-12,
                    "row {r} col {c}: err {err} > scale/2 {}",
                    scale * 0.5
                );
            }
        }
    }

    #[test]
    fn int8_edge_rows() {
        // All-zero row: scale 0, everything dequantizes to 0.
        assert_eq!(int8_row_scale(&[0.0; 5]), 0.0);
        assert_eq!(quantize_value_int8(0.0, 0.0), 0);
        // NaN maps to 0; ±inf clamps to the ends of the scale.
        let scale = int8_row_scale(&[1.27, f32::NAN, f32::INFINITY]);
        assert_eq!(scale, 0.01);
        assert_eq!(quantize_value_int8(f32::NAN, scale), 0);
        assert_eq!(quantize_value_int8(f32::INFINITY, scale), 127);
        assert_eq!(quantize_value_int8(f32::NEG_INFINITY, scale), -127);
        // Single-element row quantizes to exactly ±127.
        let s = int8_row_scale(&[-0.375]);
        assert_eq!(quantize_value_int8(-0.375, s), -127);
        assert!((dequantize_value_int8(-127, s) - -0.375).abs() < 1e-7);
    }

    #[test]
    fn precision_parse_and_names() {
        for p in [Precision::F32, Precision::F16, Precision::Int8] {
            assert_eq!(Precision::parse(p.name()), Some(p));
        }
        assert_eq!(Precision::parse("INT8"), Some(Precision::Int8));
        assert_eq!(Precision::parse("half"), Some(Precision::F16));
        assert_eq!(Precision::parse("bf16"), None);
        assert_eq!(Precision::F32.elem_bytes(), 4);
        assert_eq!(Precision::F16.elem_bytes(), 2);
        assert_eq!(Precision::Int8.elem_bytes(), 1);
    }

    #[test]
    fn dequantize_row_into_matches_full_dequantize() {
        let m = seq_matrix(6, 9, 4);
        for precision in [Precision::F16, Precision::Int8] {
            let q = QuantizedMatrix::quantize(&m, precision);
            let full = q.dequantize();
            let mut row = vec![0.0f32; 9];
            for r in 0..6 {
                q.dequantize_row_into(r, &mut row);
                assert_eq!(&row[..], full.row(r), "{} row {r}", precision.name());
            }
        }
    }
}
