//! Compact binary snapshots of matrices.
//!
//! Embedding matrices are the hand-off artifact between the representation
//! learning stage and the matching stage (paper Figure 2). The snapshot
//! format lets the experiment harness cache trained embeddings on disk and
//! reload them without re-running the encoders.
//!
//! Layout (little-endian):
//! `magic "EMTX" | u32 version | u64 rows | u64 cols | rows*cols * f32`.
//!
//! Besides the in-memory [`to_bytes`]/[`from_bytes`] pair, the module
//! offers out-of-core access: [`SnapshotReader`] iterates a snapshot in
//! fixed-size row chunks through a buffered reader, and
//! [`read_file_chunked`] loads a file with aux memory bounded by the chunk
//! (no full byte-buffer copy next to the decoded matrix, which is what
//! `fs::read` + [`from_bytes`] costs).

use crate::error::LinalgError;
use crate::matrix::Matrix;
use crate::Result;
use entmatcher_support::telemetry;
use std::io::Read;

const MAGIC: &[u8; 4] = b"EMTX";
const VERSION: u32 = 1;

/// Size of the fixed snapshot header in bytes.
const HEADER_BYTES: usize = 24;

/// The first step of a chunk's byte buffer, before any payload has
/// arrived; later steps double it up to the chunk's size.
const FIRST_READ_BYTES: usize = 64 << 10;

/// Serializes a matrix into the snapshot wire format. A matrix with rows
/// but no columns has no valid snapshot: the loaders reject its header.
pub fn to_bytes(m: &Matrix) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 4 + 16 + m.len() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for &v in m.as_slice() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    buf
}

/// Decodes a snapshot produced by [`to_bytes`].
pub fn from_bytes(bytes: &[u8]) -> Result<Matrix> {
    let Some((head, payload)) = bytes.split_first_chunk::<HEADER_BYTES>() else {
        return Err(LinalgError::CorruptSnapshot("truncated header".into()));
    };
    let (rows, cols, payload_bytes) = parse_header(head)?;
    if payload.len() != payload_bytes {
        return Err(LinalgError::CorruptSnapshot(format!(
            "payload length {} != {payload_bytes} bytes for {rows} x {cols}",
            payload.len()
        )));
    }
    let data = payload
        .chunks_exact(4)
        .map(|quad| f32::from_le_bytes(quad.try_into().expect("4-byte chunks")))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Decodes a snapshot header (shared by [`from_bytes`] and the streaming
/// reader). Returns `(rows, cols, payload_bytes)`. Two shapes are corrupt:
/// one whose payload byte count overflows `usize`, so no caller can size a
/// buffer from a wrapped length; and rows with zero columns, whose empty
/// payload would pass every length check while the loaders walk (and the
/// int8 packer keeps a scale for) each declared row.
fn parse_header(head: &[u8; HEADER_BYTES]) -> Result<(usize, usize, usize)> {
    let magic: [u8; 4] = head[0..4].try_into().unwrap();
    if &magic != MAGIC {
        return Err(LinalgError::CorruptSnapshot(format!("bad magic {magic:?}")));
    }
    let version = u32::from_le_bytes(head[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(LinalgError::CorruptSnapshot(format!(
            "unsupported version {version}"
        )));
    }
    let field = |at: usize| {
        let bytes = head[at..at + 8].try_into().expect("8-byte header field");
        usize::try_from(u64::from_le_bytes(bytes))
    };
    let (Ok(rows), Ok(cols)) = (field(8), field(16)) else {
        return Err(LinalgError::CorruptSnapshot("shape overflow".into()));
    };
    if rows > 0 && cols == 0 {
        return Err(LinalgError::CorruptSnapshot(format!(
            "{rows} rows with zero columns"
        )));
    }
    let payload_bytes = rows
        .checked_mul(cols)
        .and_then(|elems| elems.checked_mul(4))
        .ok_or_else(|| LinalgError::CorruptSnapshot(format!("shape overflow: {rows} x {cols}")))?;
    Ok((rows, cols, payload_bytes))
}

/// Streams a snapshot in fixed-size row chunks — the out-of-core load
/// path. The header is parsed eagerly so [`SnapshotReader::rows`] /
/// [`SnapshotReader::cols`] can size downstream buffers (e.g.
/// [`crate::gemm::PackedBuilder::with_capacity`]) before any payload is
/// read; the payload is then consumed chunk by chunk through one reused
/// byte buffer, so aux memory is O(chunk), independent of snapshot size.
#[derive(Debug)]
pub struct SnapshotReader<R = std::io::BufReader<std::fs::File>> {
    inner: R,
    rows: usize,
    cols: usize,
    next_row: usize,
    /// Reused chunk byte buffer (grown to the largest chunk read).
    buf: Vec<u8>,
}

impl SnapshotReader<std::io::BufReader<std::fs::File>> {
    /// Opens a snapshot file for chunked reading, validating the header
    /// and that the file length matches the declared shape.
    pub fn open(path: &std::path::Path) -> Result<Self> {
        let file = std::fs::File::open(path)
            .map_err(|e| LinalgError::Io(format!("{}: {e}", path.display())))?;
        let file_len = file
            .metadata()
            .map_err(|e| LinalgError::Io(format!("{}: {e}", path.display())))?
            .len();
        let reader = Self::from_reader(std::io::BufReader::new(file))?;
        // `parse_header` checked that the payload byte count fits `usize`.
        let payload = (reader.rows * reader.cols * 4) as u64;
        if payload.checked_add(HEADER_BYTES as u64) != Some(file_len) {
            return Err(LinalgError::CorruptSnapshot(format!(
                "file length {file_len} != {HEADER_BYTES} + {payload} for {} x {}",
                reader.rows, reader.cols
            )));
        }
        Ok(reader)
    }
}

impl<R: Read> SnapshotReader<R> {
    /// Wraps any byte stream positioned at a snapshot header.
    pub fn from_reader(mut inner: R) -> Result<Self> {
        let mut head = [0u8; HEADER_BYTES];
        inner
            .read_exact(&mut head)
            .map_err(|_| LinalgError::CorruptSnapshot("truncated header".into()))?;
        let (rows, cols, _) = parse_header(&head)?;
        Ok(SnapshotReader {
            inner,
            rows,
            cols,
            next_row: 0,
            buf: Vec::new(),
        })
    }

    /// Total rows declared by the header.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Columns declared by the header.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Rows not yet consumed.
    #[inline]
    pub fn rows_remaining(&self) -> usize {
        self.rows - self.next_row
    }

    /// Reads the next chunk of at most `max_rows` rows (`None` once the
    /// payload is exhausted). A truncated stream is a
    /// [`LinalgError::CorruptSnapshot`].
    pub fn next_chunk(&mut self, max_rows: usize) -> Result<Option<Matrix>> {
        let rows = max_rows.max(1).min(self.rows_remaining());
        if rows == 0 {
            return Ok(None);
        }
        let bytes = rows * self.cols * 4;
        // Grow the buffer only as bytes arrive, so a header that lies about
        // the shape cannot make the reader allocate its claim: each step
        // reserves at most twice what has been read (the first one
        // FIRST_READ_BYTES), and the last ends exactly at the chunk.
        self.buf.clear();
        while self.buf.len() < bytes {
            let have = self.buf.len();
            let next = bytes.min((2 * have).max(FIRST_READ_BYTES));
            self.buf.reserve_exact(next - have);
            self.buf.resize(next, 0);
            self.inner.read_exact(&mut self.buf[have..]).map_err(|_| {
                LinalgError::CorruptSnapshot(format!(
                    "truncated payload at row {} of {}",
                    self.next_row, self.rows
                ))
            })?;
        }
        let mut data = Vec::with_capacity(rows * self.cols);
        for quad in self.buf.chunks_exact(4) {
            data.push(f32::from_le_bytes(quad.try_into().unwrap()));
        }
        self.next_row += rows;
        Ok(Some(Matrix::from_vec(rows, self.cols, data)?))
    }
}

/// Loads a snapshot file with aux memory bounded by `chunk_rows`: the
/// output matrix is allocated once from the header and filled through the
/// streaming reader, instead of holding the whole file's bytes next to the
/// decoded floats. Telemetry: `snapshot.stream.chunks`.
pub fn read_file_chunked(path: &std::path::Path, chunk_rows: usize) -> Result<Matrix> {
    let mut reader = SnapshotReader::open(path)?;
    let (rows, cols) = (reader.rows(), reader.cols());
    let mut out = Matrix::zeros(rows, cols);
    let mut row = 0usize;
    let mut chunks = 0u64;
    while let Some(chunk) = reader.next_chunk(chunk_rows)? {
        let dst = &mut out.as_mut_slice()[row * cols..(row + chunk.rows()) * cols];
        dst.copy_from_slice(chunk.as_slice());
        row += chunk.rows();
        chunks += 1;
    }
    telemetry::add("snapshot.stream.chunks", chunks);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pack_snapshot_stream, Precision};

    #[test]
    fn roundtrip_preserves_matrix() {
        let m = Matrix::from_fn(7, 5, |r, c| (r as f32 * 1.5) - (c as f32 * 0.25));
        let bytes = to_bytes(&m);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn roundtrip_empty_matrix() {
        let m = Matrix::zeros(0, 0);
        assert_eq!(from_bytes(&to_bytes(&m)).unwrap(), m);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut raw = to_bytes(&Matrix::zeros(1, 1));
        raw[0] = b'X';
        assert!(from_bytes(&raw).is_err());
    }

    #[test]
    fn rejects_truncated_payload() {
        let raw = to_bytes(&Matrix::zeros(2, 2));
        assert!(from_bytes(&raw[..raw.len() - 4]).is_err());
    }

    #[test]
    fn rejects_truncated_header() {
        assert!(from_bytes(b"EMTX").is_err());
    }

    #[test]
    fn reader_streams_chunks_in_order() {
        let m = Matrix::from_fn(11, 3, |r, c| (r * 3 + c) as f32);
        let bytes = to_bytes(&m);
        let mut reader = SnapshotReader::from_reader(std::io::Cursor::new(bytes)).unwrap();
        assert_eq!((reader.rows(), reader.cols()), (11, 3));
        let mut row = 0usize;
        while let Some(chunk) = reader.next_chunk(4).unwrap() {
            assert_eq!(chunk.cols(), 3);
            for r in 0..chunk.rows() {
                assert_eq!(chunk.row(r), m.row(row + r));
            }
            row += chunk.rows();
        }
        assert_eq!(row, 11);
        assert_eq!(reader.rows_remaining(), 0);
        assert!(reader.next_chunk(4).unwrap().is_none());
    }

    #[test]
    fn reader_reads_a_chunk_past_the_first_step() {
        // 300 x 100 f32 is 120,000 bytes: two buffer steps in one chunk.
        let m = Matrix::from_fn(300, 100, |r, c| (r * 100 + c) as f32);
        let bytes = to_bytes(&m);
        let mut reader = SnapshotReader::from_reader(std::io::Cursor::new(bytes.clone())).unwrap();
        assert_eq!(reader.next_chunk(300).unwrap().unwrap(), m);
        let cut = bytes[..bytes.len() - 4].to_vec();
        let mut reader = SnapshotReader::from_reader(std::io::Cursor::new(cut)).unwrap();
        assert!(reader.next_chunk(300).is_err());
    }

    #[test]
    fn reader_rejects_truncated_payload() {
        let bytes = to_bytes(&Matrix::zeros(4, 2));
        let cut = &bytes[..bytes.len() - 4];
        let mut reader = SnapshotReader::from_reader(std::io::Cursor::new(cut.to_vec())).unwrap();
        let mut last = Ok(None);
        for _ in 0..4 {
            last = reader.next_chunk(2);
            if last.is_err() {
                break;
            }
        }
        assert!(last.is_err());
    }

    #[test]
    fn chunked_file_load_matches_from_bytes() {
        let m = Matrix::from_fn(23, 5, |r, c| (r as f32) * 0.5 - (c as f32) * 0.125);
        let dir =
            std::env::temp_dir().join(format!("entmatcher-snapshot-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chunked.emb");
        std::fs::write(&path, to_bytes(&m)).unwrap();
        for chunk in [1usize, 7, 23, 100] {
            assert_eq!(read_file_chunked(&path, chunk).unwrap(), m, "chunk={chunk}");
        }
        // Length validation: a padded file is rejected up front.
        let mut padded = to_bytes(&m);
        padded.push(0);
        std::fs::write(&path, padded).unwrap();
        assert!(SnapshotReader::open(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A payload-less header declaring `rows x cols`.
    fn bare_header(rows: u64, cols: u64) -> Vec<u8> {
        let mut head = Vec::from(*MAGIC);
        head.extend_from_slice(&VERSION.to_le_bytes());
        head.extend_from_slice(&rows.to_le_bytes());
        head.extend_from_slice(&cols.to_le_bytes());
        head
    }

    /// Asserts that every loader, in memory and from a file, reports the
    /// snapshot `raw` as corrupt.
    fn assert_every_loader_rejects(raw: &[u8], tag: &str) {
        let corrupt = |r: Result<_>| matches!(r, Err(LinalgError::CorruptSnapshot(_)));
        assert!(corrupt(from_bytes(raw).map(|_| ())));
        assert!(corrupt(
            SnapshotReader::from_reader(std::io::Cursor::new(raw.to_vec())).map(|_| ())
        ));
        let dir = std::env::temp_dir().join(format!(
            "entmatcher-snapshot-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.emb");
        std::fs::write(&path, raw).unwrap();
        assert!(corrupt(SnapshotReader::open(&path).map(|_| ())));
        assert!(corrupt(read_file_chunked(&path, 16).map(|_| ())));
        for precision in [Precision::F32, Precision::F16, Precision::Int8] {
            assert!(corrupt(
                pack_snapshot_stream(&path, precision, 16).map(|_| ())
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_whose_byte_count_overflows_is_corrupt() {
        // 2^62 x 1 elements = 2^64 payload bytes, which wraps to 0: the
        // 24-byte header alone would pass a wrapped length check.
        assert_every_loader_rejects(&bare_header(1 << 62, 1), "ovf");
    }

    #[test]
    fn header_with_rows_but_no_columns_is_corrupt() {
        // 2^40 x 0: an empty payload matches the declared byte count, so
        // only the shape itself can stop the loaders from walking 2^40
        // phantom rows.
        assert_every_loader_rejects(&bare_header(1 << 40, 0), "n0");
        // Zero rows stay a valid (empty) snapshot at any width.
        for cols in [0usize, 3] {
            let empty = Matrix::zeros(0, cols);
            assert_eq!(from_bytes(&to_bytes(&empty)).unwrap(), empty);
        }
    }

    #[test]
    fn open_missing_file_is_io_error() {
        let err = SnapshotReader::open(std::path::Path::new("/nonexistent/x.emb")).unwrap_err();
        assert!(matches!(err, LinalgError::Io(_)));
    }
}
