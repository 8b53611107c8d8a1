//! CSV dataset I/O: one point per line, comma-separated coordinates.
//! Blank lines and `#` comment lines are skipped. A header line is
//! detected (first line whose first field does not parse as a number) and
//! ignored.
//!
//! Every malformed input — ragged rows, non-numeric or non-finite fields,
//! empty files, header-only files — is reported as a line-numbered
//! [`Error::InvalidParameter`] (parameter `csv`), never a panic.
//!
//! ## How a file is parsed
//!
//! The reader is consumed in **blocks** of about 1 MiB per thread of
//! [`Pool::current`]: `PARTS_PER_THREAD` **parts** of `PART_BYTES` each,
//! read one after the other. A part holds whole lines only; the partial
//! line at its end is carried into the next part. Only one block is held,
//! never the whole file. Once the first data row has fixed the dimension,
//! the parts are parsed with [`Pool::par_map`] (one contiguous range of
//! parts per thread) and appended in file order, and the earliest part with
//! a bad line reports it, so the error is always the first one in the file.
//!
//! Each part has its own buffer, allocated once per file, rather than the
//! block being one buffer that the parts slice: every buffer stays below
//! glibc's 128 KiB `mmap` threshold. Freeing a larger, `mmap`ed buffer
//! raises that threshold for the rest of the process, after which freed
//! memory stays resident. With glibc on x86-64 Linux, one 2 MiB block
//! buffer raised the peak resident set of a COLOR64 `serve` benchmark run
//! by 3.3 MB (9 %), long after the parse had ended.
//!
//! Inside a part an allocation-free byte scanner takes a line only when it
//! has exactly `dim` fields, each matching
//!
//! ```text
//! [ \t\r]*[-+]?d*[.d*]([eE][-+]?d+)?[ \t\r]*      (at least one mantissa digit)
//! ```
//!
//! A field with at most 19 significant digits `m` and a decimal exponent
//! `e` is converted by Clinger's exact path: when `m <= 2^53` and
//! `|e| <= 22`, both `m` and `10^|e|` are exact in `f64`, so one IEEE
//! multiply or divide gives the correctly rounded `f64`. Rounding that on to
//! `f32` is a second rounding, which can only go wrong when the `f64` lands
//! exactly on a midpoint between two `f32`s (its 29 low mantissa bits are
//! `1000…0`); those fields go to `str::parse::<f32>`. Such values lie in
//! `[1e-22, 2^53 * 1e22]`, inside the normal `f32` range, so subnormals and
//! overflow never reach the fast path either. Every other field of the
//! grammar goes to `str::parse::<f32>` too.
//!
//! Everything else — the header and comment lines before the first data
//! row, and every line the scanner declines (comments, `nan`, Unicode
//! padding, ragged rows, invalid UTF-8, non-finite values) — goes through
//! the line-based logic (`parse_line`), so `str::trim` and
//! `str::parse::<f32>` stay the only grammar and each error keeps its exact
//! line-numbered message.

use hdidx_core::{Dataset, Error, Result};
use hdidx_pool::Pool;
use std::fmt::Write as _;
use std::io::{BufRead, BufWriter, Read, Write};
use std::path::Path;

/// Bytes read into one part's buffer (kept small: see the module doc).
const PART_BYTES: usize = 32 << 10;

/// Parts per pool thread in one block, which is then 1 MiB per thread.
const PARTS_PER_THREAD: usize = 32;

/// The message `BufRead::lines` gives a line that is not UTF-8.
const INVALID_UTF8: &str = "stream did not contain valid UTF-8";

/// Reads a dataset from a CSV file.
///
/// # Errors
///
/// [`Error::InvalidParameter`] for I/O failures, ragged rows, non-numeric
/// or non-finite fields, or a file with no data rows.
pub fn read_csv(path: &Path) -> Result<Dataset> {
    let file = std::fs::File::open(path)
        .map_err(|e| Error::invalid("csv", format!("cannot open {path:?}: {e}")))?;
    let reader = std::io::BufReader::new(file);
    parse_csv(reader)
}

/// Parses CSV content from any reader (unit-test seam).
///
/// # Errors
///
/// Same conditions as [`read_csv`].
pub fn parse_csv<R: BufRead>(reader: R) -> Result<Dataset> {
    parse_blocks(reader, &Pool::current(), PART_BYTES)
}

/// Why a line was rejected; [`LineError::at`] adds the line number.
#[derive(Debug)]
enum LineError {
    Read(String),
    EmptyField,
    Ragged { expected: usize, found: usize },
    Unparsable(String),
    NonFinite(String),
}

impl LineError {
    fn at(self, line: usize) -> Error {
        let message = match self {
            LineError::Read(e) => format!("read error at line {line}: {e}"),
            LineError::EmptyField => format!("line {line}: empty field"),
            LineError::Ragged { expected, found } => {
                format!("line {line}: expected {expected} fields, found {found}")
            }
            LineError::Unparsable(f) => format!("line {line}: cannot parse `{f}` as a number"),
            LineError::NonFinite(f) => format!("line {line}: non-finite value `{f}`"),
        };
        Error::invalid("csv", message)
    }
}

/// Parser state carried from block to block.
struct Ingest {
    /// Fields per row; 0 until the first data row.
    dim: usize,
    /// Whether the next non-blank, non-comment line may be a header.
    header_allowed: bool,
    /// Lines consumed so far.
    lines: usize,
    rows: usize,
    data: Vec<f32>,
}

/// The streamed parser behind [`parse_csv`], with the part size as a
/// parameter so tests can make lines straddle parts and blocks.
fn parse_blocks<R: Read>(mut reader: R, pool: &Pool, part_bytes: usize) -> Result<Dataset> {
    let part_bytes = part_bytes.max(1);
    let mut st = Ingest {
        dim: 0,
        header_allowed: true,
        lines: 0,
        rows: 0,
        data: Vec::new(),
    };
    let mut parts = vec![Vec::new(); pool.threads() * PARTS_PER_THREAD];
    // The partial line at the end of the last part filled.
    let mut carry = Vec::new();
    loop {
        let mut filled = 0;
        let mut last = None;
        for part in &mut parts {
            part.clear();
            part.reserve_exact(carry.len() + part_bytes);
            part.append(&mut carry);
            filled += 1;
            last = fill_part(&mut reader, part, part_bytes, &mut carry);
            if last.is_some() {
                break;
            }
        }
        st.ingest(&parts[..filled], pool)?;
        match last {
            None => {}
            Some(Ok(())) => break,
            // Like `BufRead::lines`: the lines before it parse first.
            Some(Err(e)) => return Err(LineError::Read(e.to_string()).at(st.lines + 1)),
        }
    }
    if st.rows == 0 {
        return Err(Error::invalid("csv", "no data rows found"));
    }
    Dataset::from_flat(st.dim, st.data)
}

/// Reads up to `part_bytes` more into `part`, which then holds whole lines
/// only: the partial line at its end moves to `carry`. A line longer than
/// a part is read on until it ends. Returns `Some` at the end of input —
/// `Ok` at end of file (the last line needs no newline), `Err` on a read
/// error (the unreadable partial line is dropped).
fn fill_part<R: Read>(
    reader: &mut R,
    part: &mut Vec<u8>,
    part_bytes: usize,
    carry: &mut Vec<u8>,
) -> Option<std::io::Result<()>> {
    loop {
        // Whatever `part` holds already has no newline.
        let old_len = part.len();
        let read = reader.by_ref().take(part_bytes as u64).read_to_end(part);
        let last_newline = part[old_len..]
            .iter()
            .rposition(|&c| c == b'\n')
            .map(|p| old_len + p);
        match read {
            Ok(got) if got < part_bytes => return Some(Ok(())),
            Ok(_) => {
                if let Some(p) = last_newline {
                    carry.extend_from_slice(&part[p + 1..]);
                    part.truncate(p + 1);
                    return None;
                }
            }
            Err(e) => {
                part.truncate(last_newline.map_or(0, |p| p + 1));
                return Some(Err(e));
            }
        }
    }
}

impl Ingest {
    /// Parses the filled parts of one block in file order: lines go one by
    /// one through [`parse_line`] until the first data row fixes the
    /// dimension, then the rest in parallel, one range of parts per thread.
    fn ingest(&mut self, parts: &[Vec<u8>], pool: &Pool) -> Result<()> {
        let mut bodies = Vec::with_capacity(parts.len());
        for part in parts {
            let start = if self.dim == 0 { self.head(part)? } else { 0 };
            bodies.push(&part[start..]);
        }
        let dim = self.dim;
        for part in pool.par_map(&bodies, |b| parse_part(b, dim)) {
            if let Some((line, e)) = part.error {
                return Err(e.at(self.lines + line + 1));
            }
            // Power-of-two capacities, as one push per value gives: the
            // dataset's allocation, and so the allocator's later behaviour
            // (see the module doc), stay those of a line-by-line parse.
            let need = self.data.len() + part.values.len();
            if need > self.data.capacity() {
                self.data
                    .reserve_exact(need.next_power_of_two() - self.data.len());
            }
            self.data.extend_from_slice(&part.values);
            self.rows += part.rows;
            self.lines += part.lines;
        }
        Ok(())
    }

    /// Runs the lines of `region` one by one through [`parse_line`] until
    /// the first data row fixes the dimension; returns the bytes consumed.
    fn head(&mut self, region: &[u8]) -> Result<usize> {
        let mut pos = 0;
        while pos < region.len() && self.dim == 0 {
            let rest = &region[pos..];
            let n = line_len(rest);
            self.lines += 1;
            if parse_line(
                &rest[..n],
                &mut self.header_allowed,
                &mut self.dim,
                &mut self.data,
            )
            .map_err(|e| e.at(self.lines))?
            {
                self.rows += 1;
            }
            pos += (n + 1).min(rest.len());
        }
        Ok(pos)
    }
}

/// Length of the first line of `b`, without its newline.
fn line_len(b: &[u8]) -> usize {
    b.iter().position(|&c| c == b'\n').unwrap_or(b.len())
}

/// What one part parsed to.
struct Part {
    values: Vec<f32>,
    rows: usize,
    lines: usize,
    /// The first bad line: its index within the part, and why.
    error: Option<(usize, LineError)>,
}

/// Parses whole lines of a part whose rows have `dim` fields: the scanner
/// first, [`parse_line`] for every line it declines.
fn parse_part(b: &[u8], dim: usize) -> Part {
    let mut part = Part {
        values: Vec::with_capacity(b.len() / 8),
        rows: 0,
        lines: 0,
        error: None,
    };
    let mut pos = 0;
    while pos < b.len() {
        let rest = &b[pos..];
        let kept = part.values.len();
        if let Some(n) = scan_line(rest, dim, &mut part.values) {
            part.rows += 1;
            pos += n;
        } else {
            part.values.truncate(kept);
            let n = line_len(rest);
            let (mut header_allowed, mut dim) = (false, dim);
            match parse_line(&rest[..n], &mut header_allowed, &mut dim, &mut part.values) {
                Ok(is_row) => part.rows += usize::from(is_row),
                Err(e) => {
                    part.error = Some((part.lines, e));
                    return part;
                }
            }
            pos += (n + 1).min(rest.len());
        }
        part.lines += 1;
    }
    part
}

/// The line-based parser: validates, trims and parses one line (without
/// its newline), appending its values to `out`. Returns whether it was a
/// data row; the first data row sets `dim`.
fn parse_line(
    raw: &[u8],
    header_allowed: &mut bool,
    dim: &mut usize,
    out: &mut Vec<f32>,
) -> std::result::Result<bool, LineError> {
    let line = std::str::from_utf8(raw).map_err(|_| LineError::Read(INVALID_UTF8.into()))?;
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(false);
    }
    let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
    if *header_allowed && fields[0].parse::<f32>().is_err() {
        // Header line: skip once.
        *header_allowed = false;
        return Ok(false);
    }
    *header_allowed = false;
    if fields.iter().any(|f| f.is_empty()) {
        return Err(LineError::EmptyField);
    }
    if *dim == 0 {
        *dim = fields.len();
    } else if fields.len() != *dim {
        return Err(LineError::Ragged {
            expected: *dim,
            found: fields.len(),
        });
    }
    for f in &fields {
        let v: f32 = f
            .parse()
            .map_err(|_| LineError::Unparsable((*f).to_string()))?;
        if !v.is_finite() {
            return Err(LineError::NonFinite((*f).to_string()));
        }
        out.push(v);
    }
    Ok(true)
}

fn skip_pad(b: &[u8], mut i: usize) -> usize {
    while matches!(b.get(i), Some(b' ' | b'\t' | b'\r')) {
        i += 1;
    }
    i
}

/// The fast path for the line at the start of `b`: a row of exactly `dim`
/// finite fields of the module's grammar, pushed onto `out`. Returns the
/// line's length with its newline, or `None` to decline the line (`out`
/// may then hold a partial row, which the caller drops).
fn scan_line(b: &[u8], dim: usize, out: &mut Vec<f32>) -> Option<usize> {
    let mut i = skip_pad(b, 0);
    for field in 1..=dim {
        let (len, fast) = scan_number(&b[i..])?;
        let v = match fast {
            Some(v) => v,
            None => std_f32(&b[i..i + len]).filter(|v| v.is_finite())?,
        };
        out.push(v);
        i = skip_pad(b, i + len);
        match b.get(i) {
            Some(b',') if field < dim => i = skip_pad(b, i + 1),
            Some(b'\n') if field == dim => return Some(i + 1),
            None if field == dim => return Some(i),
            _ => return None,
        }
    }
    None
}

/// `str::parse::<f32>` on an ASCII field.
fn std_f32(field: &[u8]) -> Option<f32> {
    std::str::from_utf8(field).ok()?.parse().ok()
}

/// Powers of ten exact in `f64`.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// Appends the run of ASCII digits at `b[i..]` to `mant` (wrapping; exact
/// while the number has at most 19 significant digits) and returns the
/// index after the run.
fn digit_run(b: &[u8], mut i: usize, mant: &mut u64) -> usize {
    while let Some(&c @ b'0'..=b'9') = b.get(i) {
        *mant = mant.wrapping_mul(10).wrapping_add(u64::from(c - b'0'));
        i += 1;
    }
    i
}

/// Scans a number of the module's grammar (without padding) at the start
/// of `b`. Returns its length and, when Clinger's exact path applies, its
/// `f32` value — the value `str::parse::<f32>` gives, bit for bit; `None`
/// as the value means the number needs `str::parse`. Returns `None` when
/// `b` does not start with a number of the grammar.
fn scan_number(b: &[u8]) -> Option<(usize, Option<f32>)> {
    let neg = b.first() == Some(&b'-');
    let first = usize::from(matches!(b.first(), Some(b'-' | b'+')));
    let mut mant = 0u64;
    let mut i = digit_run(b, first, &mut mant);
    let mut digits = i - first;
    let mut exp = 0i64;
    if b.get(i) == Some(&b'.') {
        let end = digit_run(b, i + 1, &mut mant);
        digits += end - i - 1;
        exp = -((end - i - 1) as i64);
        i = end;
    }
    if digits == 0 {
        return None;
    }
    // More than 19 significant digits (leading zeros do not count).
    let long = digits > 19
        && b[first..i]
            .iter()
            .skip_while(|&&c| c == b'0' || c == b'.')
            .filter(|&&c| c != b'.')
            .count()
            > 19;
    if matches!(b.get(i), Some(b'e' | b'E')) {
        let mut j = i + 1;
        let eneg = b.get(j) == Some(&b'-');
        j += usize::from(matches!(b.get(j), Some(b'-' | b'+')));
        let digits_from = j;
        let mut e = 0i64;
        while let Some(&c @ b'0'..=b'9') = b.get(j) {
            e = (e * 10 + i64::from(c - b'0')).min(1 << 20);
            j += 1;
        }
        if j == digits_from {
            return None;
        }
        exp += if eneg { -e } else { e };
        i = j;
    }
    if long || mant > 1 << 53 || !(-22..=22).contains(&exp) {
        return Some((i, None));
    }
    let m = mant as f64;
    let x = if exp < 0 {
        m / POW10[exp.unsigned_abs() as usize]
    } else {
        m * POW10[exp as usize]
    };
    // An f32 midpoint: round-to-nearest-even on the f64 may have lost the
    // side of the midpoint the decimal lies on.
    if x.to_bits() & 0x1FFF_FFFF == 0x1000_0000 {
        return Some((i, None));
    }
    let v = x as f32;
    Some((i, Some(if neg { -v } else { v })))
}

/// Writes a dataset as CSV.
///
/// # Errors
///
/// [`Error::InvalidParameter`] on I/O failure.
pub fn write_csv(path: &Path, data: &Dataset) -> Result<()> {
    let file = std::fs::File::create(path)
        .map_err(|e| Error::invalid("csv", format!("cannot create {path:?}: {e}")))?;
    let mut w = BufWriter::new(file);
    let mut line = String::new();
    for i in 0..data.len() {
        line.clear();
        for (j, x) in data.point(i).iter().enumerate() {
            if j > 0 {
                line.push(',');
            }
            write!(line, "{x}").expect("formatting into a String cannot fail");
        }
        line.push('\n');
        w.write_all(line.as_bytes())
            .map_err(|e| Error::invalid("csv", format!("write error: {e}")))?;
    }
    w.flush()
        .map_err(|e| Error::invalid("csv", format!("write error: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdidx_check::{check, prop_assert_eq, Config, Shrink, Verdict};
    use hdidx_rand::{Rng, Xoshiro256pp};

    fn parse(s: &str) -> Result<Dataset> {
        parse_csv(std::io::Cursor::new(s.to_string()))
    }

    /// The malformed-input contract: an `InvalidParameter` on the `csv`
    /// parameter whose message contains `needle`.
    fn assert_csv_err(input: &str, needle: &str) {
        match parse(input) {
            Err(Error::InvalidParameter { name, message }) => {
                assert_eq!(name, "csv", "{input:?}");
                assert!(message.contains(needle), "{input:?}: {message}");
            }
            other => panic!("{input:?}: expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn parses_plain_csv() {
        let d = parse("1.0,2.0\n3.5,-4.25\n").unwrap();
        assert_eq!(d.dim(), 2);
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(1), &[3.5, -4.25]);
    }

    #[test]
    fn skips_header_comments_and_blanks() {
        let d = parse("# comment\nx,y\n\n1,2\n# another\n3,4\n").unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.point(0), &[1.0, 2.0]);
    }

    #[test]
    fn ragged_rows_are_line_numbered_errors() {
        assert_csv_err("1,2\n3\n", "line 2: expected 2 fields, found 1");
        assert_csv_err("1,2\n3,4,5\n", "line 2: expected 2 fields, found 3");
        // Line numbers count raw lines, including skipped ones.
        assert_csv_err("# c\nx,y\n1,2\n\n3\n", "line 5: expected 2 fields");
    }

    #[test]
    fn bad_fields_are_line_numbered_errors() {
        assert_csv_err("1,abc\n", "line 1: cannot parse `abc`");
        assert_csv_err("1,2\n3,nan\n", "line 2: non-finite value `nan`");
        assert_csv_err("1,inf\n", "line 1: non-finite value `inf`");
        assert_csv_err("1,-inf\n", "non-finite value `-inf`");
        assert_csv_err("1,,3\n", "line 1: empty field");
        // Two consecutive non-numeric lines: only one header allowed.
        assert_csv_err("x,y\na,b\n1,2\n", "line 2: cannot parse `a`");
    }

    #[test]
    fn empty_inputs_are_errors_not_panics() {
        assert_csv_err("", "no data rows");
        assert_csv_err("# only comments\n", "no data rows");
        assert_csv_err("\n\n\n", "no data rows");
        // A header with no data below it (zero-dimension dataset).
        assert_csv_err("x,y,z\n", "no data rows");
        assert_csv_err("x,y\n# trailing comment\n\n", "no data rows");
    }

    fn parse_bytes(bytes: &[u8]) -> Result<Dataset> {
        parse_csv(std::io::Cursor::new(bytes.to_vec()))
    }

    #[test]
    fn parses_crlf_padding_and_number_forms() {
        let d = parse("x,y\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!((d.len(), d.point(1)), (2, &[3.0, 4.0][..]));
        // `str::trim` strips Unicode whitespace: U+00A0 and vertical tab.
        let d = parse("\u{a0}1,\u{b}2\u{a0}\n3\u{b},\u{a0}4\n").unwrap();
        assert_eq!(d.point(0), &[1.0, 2.0]);
        assert_eq!(d.point(1), &[3.0, 4.0]);
        let d = parse("1e5,+1.5,.5,5.\n-0,1E-3,-2.5e+2,007\n").unwrap();
        assert_eq!(d.point(0), &[1e5, 1.5, 0.5, 5.0]);
        assert_eq!(d.point(1), &[-0.0, 1e-3, -250.0, 7.0]);
        assert!(d.point(1)[0].is_sign_negative());
        // Mantissas longer than 19 digits round exactly as `str::parse`.
        let long = [
            "0.12345678901234567890123",
            "1234567890123456789012",
            "9.99999999999999999999e-3",
        ];
        let d = parse(&format!("{}\n", long.join(","))).unwrap();
        for (x, s) in d.point(0).iter().zip(long) {
            assert_eq!(x.to_bits(), s.parse::<f32>().unwrap().to_bits(), "{s}");
        }
    }

    #[test]
    fn header_after_leading_comments_is_skipped() {
        let d = parse("# a\n\n# b\nx,y\n1,2\n").unwrap();
        assert_eq!((d.dim(), d.len(), d.point(0)), (2, 1, &[1.0, 2.0][..]));
        assert_csv_err("# a\nx,y\nu,v\n1,2\n", "line 3: cannot parse `u`");
    }

    #[test]
    fn crlf_invalid_utf8_and_overflow_are_line_numbered_errors() {
        assert_csv_err("1,2\r\n3\r\n", "line 2: expected 2 fields, found 1");
        assert_csv_err("1,2\n3,1e39\n", "line 2: non-finite value `1e39`");
        match parse_bytes(b"1,2\n# \xff\n3,4\n") {
            Err(Error::InvalidParameter { name, message }) => {
                assert_eq!(name, "csv");
                assert!(message.contains("read error at line 2"), "{message}");
            }
            other => panic!("expected a read error, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_through_file() {
        let data = Dataset::from_flat(3, vec![1.0, 2.5, -3.0, 0.125, 4.0, 5.5]).unwrap();
        let dir = std::env::temp_dir().join("hdidx_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        write_csv(&path, &data).unwrap();
        let back = read_csv(&path).unwrap();
        assert_eq!(back, data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn written_bytes_are_pinned_by_digest() {
        // Finite f32s from every binade (subnormals, huge, negative zero)
        // so `{x}` formatting of each coordinate is pinned byte for byte.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut flat = Vec::new();
        while flat.len() < 8 * 200 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = f32::from_bits((state >> 32) as u32);
            if x.is_finite() {
                flat.push(x);
            }
        }
        flat[..6].copy_from_slice(&[-0.0, 0.1, 1.0 / 3.0, 16_777_217.0, f32::MAX, 1e-45]);
        let data = Dataset::from_flat(8, flat).unwrap();
        let dir = std::env::temp_dir().join("hdidx_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("digest-{}.csv", std::process::id()));
        write_csv(&path, &data).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        // FNV-1a over the file.
        let digest = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((bytes.len(), digest), (41_636, 0x3563_2c1e_f5ba_007c));
        let back = parse_bytes(&bytes).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn missing_file_is_reported() {
        let err = read_csv(Path::new("/nonexistent/nope.csv")).unwrap_err();
        assert!(err.to_string().contains("cannot open"), "{err}");
        assert!(matches!(err, Error::InvalidParameter { name: "csv", .. }));
    }

    /// The line-based parser the streamed one replaced, kept verbatim as
    /// the reference it must match.
    fn parse_csv_lines<R: BufRead>(reader: R) -> Result<Dataset> {
        let mut dim = 0usize;
        let mut data: Vec<f32> = Vec::new();
        let mut row = 0usize;
        let mut header_allowed = true;
        for (lineno, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| {
                Error::invalid("csv", format!("read error at line {}: {e}", lineno + 1))
            })?;
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(',').map(str::trim).collect();
            if header_allowed && fields[0].parse::<f32>().is_err() {
                // Header line: skip once.
                header_allowed = false;
                continue;
            }
            header_allowed = false;
            if fields.iter().any(|f| f.is_empty()) {
                return Err(Error::invalid(
                    "csv",
                    format!("line {}: empty field", lineno + 1),
                ));
            }
            if dim == 0 {
                dim = fields.len();
            } else if fields.len() != dim {
                return Err(Error::invalid(
                    "csv",
                    format!(
                        "line {}: expected {dim} fields, found {}",
                        lineno + 1,
                        fields.len()
                    ),
                ));
            }
            for f in &fields {
                let v: f32 = f.parse().map_err(|_| {
                    Error::invalid(
                        "csv",
                        format!("line {}: cannot parse `{f}` as a number", lineno + 1),
                    )
                })?;
                if !v.is_finite() {
                    return Err(Error::invalid(
                        "csv",
                        format!("line {}: non-finite value `{f}`", lineno + 1),
                    ));
                }
                data.push(v);
            }
            row += 1;
        }
        if row == 0 {
            return Err(Error::invalid("csv", "no data rows found"));
        }
        Dataset::from_flat(dim, data)
    }

    /// A parse outcome compared bit for bit: the dimension and the `f32`
    /// bits of every coordinate, or the error message.
    fn outcome(r: Result<Dataset>) -> std::result::Result<(usize, Vec<u32>), String> {
        r.map(|d| (d.dim(), d.as_flat().iter().map(|x| x.to_bits()).collect()))
            .map_err(|e| e.to_string())
    }

    #[test]
    fn scanner_takes_exact_cases_and_hands_the_rest_to_std() {
        assert_eq!(scan_number(b"0.5"), Some((3, Some(0.5))));
        assert_eq!(
            scan_number(b"-0.0040953993,"),
            Some((13, Some(-0.004_095_399_3)))
        );
        assert_eq!(scan_number(b"+.5e1"), Some((5, Some(5.0))));
        // An exact f32 midpoint: ties-to-even is std's call.
        assert_eq!(scan_number(b"16777217"), Some((8, None)));
        // 20 significant digits, or an exponent past 10^22.
        assert_eq!(scan_number(b"12345678901234567890"), Some((20, None)));
        assert_eq!(scan_number(b"1e23"), Some((4, None)));
        assert_eq!(scan_number(b"0.00000000000000000000001"), Some((25, None)));
        for not_a_number in [&b""[..], b".", b"-", b"+.e1", b"1e", b"1e+", b"nan", b"x1"] {
            assert_eq!(scan_number(not_a_number), None, "{not_a_number:?}");
        }
    }

    #[test]
    fn earliest_bad_line_wins_across_parts_and_blocks() {
        let mut text = String::from("x,y\n");
        for i in 0..2000 {
            match i {
                300 => text.push_str("1,oops\n"),
                900 => text.push_str("1\n"),
                1700 => text.push_str("1,nan\n"),
                _ => text.push_str(&format!("{i},{}\n", i * 3)),
            }
        }
        for threads in [1, 2, 8] {
            for part_bytes in [7, 64, 4096, PART_BYTES] {
                let got = parse_blocks(text.as_bytes(), &Pool::new(threads), part_bytes);
                assert_eq!(
                    outcome(got),
                    Err(
                        "invalid parameter `csv`: line 302: cannot parse `oops` as a number".into()
                    ),
                    "threads {threads} part_bytes {part_bytes}"
                );
            }
        }
    }

    /// ASCII or arbitrary bytes, shown as (lossy) text in failure reports.
    #[derive(Clone, PartialEq)]
    struct Text(Vec<u8>);

    impl std::fmt::Debug for Text {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "{:?}", String::from_utf8_lossy(&self.0))
        }
    }

    impl Shrink for Text {
        fn shrink(&self) -> Vec<Self> {
            self.0.shrink().into_iter().map(Text).collect()
        }
    }

    fn pick<'a>(rng: &mut Xoshiro256pp, options: &[&'a str]) -> &'a str {
        options[rng.gen_range(0..options.len())]
    }

    /// A finite f32 from anywhere in its range.
    fn any_f32(rng: &mut Xoshiro256pp) -> f32 {
        loop {
            let x = f32::from_bits(rng.gen::<u32>());
            if x.is_finite() {
                return x;
            }
        }
    }

    /// A decimal near the midpoint between an f32 and its successor: the
    /// exact midpoint or a few f64 ulps off it, at varying precision.
    fn near_midpoint(rng: &mut Xoshiro256pp) -> String {
        let x = if rng.gen_bool(0.3) {
            // Spacing >= 2: integer midpoints short enough for the fast path.
            rng.gen_range(16_777_216.0f32..9.0e15)
        } else {
            f32::from_bits(rng.gen_range(0x0080_0000u32..0x7f00_0000))
        };
        let next = f32::from_bits(x.to_bits() + 1);
        let mid = (f64::from(x) + f64::from(next)) / 2.0;
        let off = rng.gen_range(-3i64..=3);
        let y = f64::from_bits(mid.to_bits().wrapping_add_signed(off));
        match rng.gen_range(0..4) {
            0 => format!("{y}"),
            1 => format!("{y:e}"),
            2 => format!("{mid}"),
            _ => format!("{:.*e}", rng.gen_range(5..20usize), y),
        }
    }

    /// Random digits with an optional point, sign and exponent.
    fn digits_exp(rng: &mut Xoshiro256pp) -> String {
        let n = rng.gen_range(1..=22usize);
        let mut s = String::from(pick(rng, &["", "", "-", "+"]));
        let point = rng.gen_range(0..=n + 3);
        for i in 0..n {
            if i == point {
                s.push('.');
            }
            let d = if rng.gen_bool(0.2) {
                0
            } else {
                rng.gen_range(0..10u32)
            };
            s.push(char::from_digit(d, 10).unwrap());
        }
        if point == n {
            s.push('.');
        }
        if rng.gen_bool(0.6) {
            let e = rng.gen_range(-45i32..=45);
            s.push_str(&format!("{}{e}", pick(rng, &["e", "E"])));
        }
        s
    }

    fn number(rng: &mut Xoshiro256pp) -> String {
        match rng.gen_range(0..6) {
            0 => format!("{}", any_f32(rng)),
            1 => format!("{:e}", any_f32(rng)),
            2 => format!("{}", f64::from(any_f32(rng)) * rng.gen_range(0.5f64..2.0)),
            3 => format!("{:e}", rng.gen_range(-1.0e6f64..1.0e6)),
            4 => digits_exp(rng),
            _ => near_midpoint(rng),
        }
    }

    #[test]
    fn prop_fast_float_path_matches_std_bit_for_bit() {
        check(
            "prop_fast_float_path_matches_std_bit_for_bit",
            &Config::with_cases(20_000),
            |rng| Text(number(rng).into_bytes()),
            |t| {
                let s = std::str::from_utf8(&t.0).unwrap();
                let Some((len, fast)) = scan_number(&t.0) else {
                    return Verdict::Pass;
                };
                if len < t.0.len() {
                    return Verdict::Pass;
                }
                // The scanner's grammar is a subset of std's.
                let Ok(want) = s.parse::<f32>() else {
                    return Verdict::Fail(format!("std rejects {s:?}"));
                };
                if let Some(got) = fast {
                    prop_assert_eq!(got.to_bits(), want.to_bits());
                }
                Verdict::Pass
            },
        );
    }

    /// One generated line (without its newline) of a CSV with `dim` columns.
    fn csv_line(rng: &mut Xoshiro256pp, dim: usize) -> Vec<u8> {
        let mut line: Vec<u8> = match rng.gen_range(0..20) {
            0 => b"# comment, 1,2".to_vec(),
            1 => pick(rng, &["", "  ", " \t \r"]).as_bytes().to_vec(),
            2 => b"x,y,z".to_vec(),
            3 => b"1,\xff,2".to_vec(),
            4 => pick(rng, &["1,,2", "1,", "nan", "1e39", "abc", "inf", "+", "."])
                .as_bytes()
                .to_vec(),
            _ => {
                let n = if rng.gen_bool(0.05) { dim + 1 } else { dim };
                let fields: Vec<String> = (0..n)
                    .map(|_| {
                        let pad = ["", "", "", " ", "\t", "\r", "\u{a0}", "\u{b}"];
                        format!("{}{}{}", pick(rng, &pad), number(rng), pick(rng, &pad))
                    })
                    .collect();
                fields.join(",").into_bytes()
            }
        };
        if rng.gen_bool(0.2) {
            line.push(b'\r');
        }
        line
    }

    /// A reader that fails with an I/O error after `ok` bytes.
    struct Failing<'a> {
        data: &'a [u8],
        ok: usize,
    }

    impl Read for Failing<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.ok == 0 {
                return Err(std::io::Error::other("injected failure"));
            }
            let n = buf.len().min(self.ok).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            self.ok -= n;
            Ok(n)
        }
    }

    #[test]
    fn prop_streamed_parser_matches_line_parser() {
        check(
            "prop_streamed_parser_matches_line_parser",
            &Config::with_cases(300),
            |rng| {
                let dim = rng.gen_range(1..=4usize);
                let n = rng.gen_range(0..40usize);
                // Mostly clean files, so the comparison reaches the end.
                let clean = rng.gen_bool(0.5);
                let lines: Vec<Text> = (0..n)
                    .map(|_| {
                        if clean {
                            // What `write_csv` emits: moderate values take
                            // the fast path, extreme ones `str::parse`.
                            let fields: Vec<String> = (0..dim)
                                .map(|_| {
                                    if rng.gen_bool(0.8) {
                                        format!("{}", rng.gen_range(-2.0f32..2.0))
                                    } else {
                                        format!("{}", any_f32(rng))
                                    }
                                })
                                .collect();
                            Text(fields.join(",").into_bytes())
                        } else {
                            Text(csv_line(rng, dim))
                        }
                    })
                    .collect();
                // 0: the reader never fails; k: it fails after k - 1 bytes.
                let fail = if rng.gen_bool(0.8) {
                    0
                } else {
                    rng.gen_range(1..=n * 40 + 1)
                };
                (lines, rng.gen_bool(0.5), rng.gen_range(1..64usize), fail)
            },
            |(lines, trailing_newline, part_bytes, fail)| {
                let mut text = lines
                    .iter()
                    .map(|l| l.0.as_slice())
                    .collect::<Vec<_>>()
                    .join(&b'\n');
                if *trailing_newline {
                    text.push(b'\n');
                }
                let reader = || Failing {
                    data: &text,
                    ok: fail.checked_sub(1).unwrap_or(usize::MAX),
                };
                let want = outcome(parse_csv_lines(std::io::BufReader::new(reader())));
                for threads in [1, 2, 8] {
                    for part_bytes in [*part_bytes, PART_BYTES] {
                        let got = outcome(parse_blocks(reader(), &Pool::new(threads), part_bytes));
                        prop_assert_eq!(got, want.clone());
                    }
                }
                Verdict::Pass
            },
        );
    }
}
