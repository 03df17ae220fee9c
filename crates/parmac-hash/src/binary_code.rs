//! Bit-packed binary codes and Hamming distances.
//!
//! Binary hashing owes its speed and memory footprint to packing each code
//! into `L` bits (the paper's motivating example: 10⁹ points × 64 bits fit in
//! 8 GB instead of 2 TB of floats). [`BinaryCodes`] stores `N` codes of `L`
//! bits each in `⌈L/64⌉` machine words per code and provides constant-time bit
//! access and popcount-based Hamming distances.

use parmac_linalg::Mat;
use parmac_optim::RowSource;
use serde::{Deserialize, Serialize};

/// A collection of `N` binary codes of `L` bits each, bit-packed into `u64`
/// words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BinaryCodes {
    words_per_code: usize,
    n_bits: usize,
    data: Vec<u64>,
}

impl BinaryCodes {
    /// Creates `n_codes` all-zero codes of `n_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `n_bits == 0`.
    pub fn zeros(n_codes: usize, n_bits: usize) -> Self {
        assert!(n_bits > 0, "codes must have at least one bit");
        let words_per_code = n_bits.div_ceil(64);
        BinaryCodes {
            words_per_code,
            n_bits,
            data: vec![0; n_codes * words_per_code],
        }
    }

    /// Builds codes from a matrix whose entries are interpreted as bits
    /// (`> 0.5` ⇒ 1): one row per code.
    pub fn from_matrix(m: &Mat) -> Self {
        let mut codes = BinaryCodes::zeros(m.rows(), m.cols().max(1));
        if m.cols() == 0 {
            return codes;
        }
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                codes.set_bit(i, j, v > 0.5);
            }
        }
        codes
    }

    /// Builds codes from per-code boolean slices.
    ///
    /// # Panics
    ///
    /// Panics if rows have inconsistent lengths or the input is empty with no
    /// way to infer the bit count.
    pub fn from_bools(rows: &[Vec<bool>]) -> Self {
        assert!(!rows.is_empty(), "need at least one code");
        let n_bits = rows[0].len();
        let mut codes = BinaryCodes::zeros(rows.len(), n_bits.max(1));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_bits, "row {i} has inconsistent length");
            for (j, &b) in row.iter().enumerate() {
                codes.set_bit(i, j, b);
            }
        }
        codes
    }

    /// Number of codes `N`.
    pub fn len(&self) -> usize {
        self.data
            .len()
            .checked_div(self.words_per_code)
            .unwrap_or(0)
    }

    /// Returns `true` if there are no codes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of bits per code `L`.
    pub fn n_bits(&self) -> usize {
        self.n_bits
    }

    /// Reads bit `bit` of code `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `bit` is out of range.
    pub fn bit(&self, i: usize, bit: usize) -> bool {
        assert!(bit < self.n_bits, "bit {bit} out of range");
        let word = self.data[i * self.words_per_code + bit / 64];
        (word >> (bit % 64)) & 1 == 1
    }

    /// Sets bit `bit` of code `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `bit` is out of range.
    pub fn set_bit(&mut self, i: usize, bit: usize, value: bool) {
        assert!(bit < self.n_bits, "bit {bit} out of range");
        let word = &mut self.data[i * self.words_per_code + bit / 64];
        if value {
            *word |= 1 << (bit % 64);
        } else {
            *word &= !(1 << (bit % 64));
        }
    }

    /// Number of `u64` words used per code: `⌈L/64⌉`.
    pub fn words_per_code(&self) -> usize {
        self.words_per_code
    }

    /// The packed words of code `i`.
    pub fn code_words(&self, i: usize) -> &[u64] {
        &self.data[i * self.words_per_code..(i + 1) * self.words_per_code]
    }

    /// All packed words, row-major: code `i` occupies
    /// `words[i * words_per_code() .. (i + 1) * words_per_code()]`. This is
    /// the layout batched scan kernels walk directly instead of calling
    /// [`code_words`](Self::code_words) per pair.
    pub fn as_words(&self) -> &[u64] {
        &self.data
    }

    /// Appends every code of `other`, in order, to this collection — a word
    /// `memcpy`, not a per-bit rebuild. Used to coalesce concurrently
    /// admitted query batches into one fan-out batch.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ.
    pub fn append_codes(&mut self, other: &BinaryCodes) {
        assert_eq!(self.n_bits, other.n_bits, "bit-width mismatch");
        self.data.extend_from_slice(&other.data);
    }

    /// Hamming distance between code `i` of `self` and code `j` of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the two collections have different bit widths.
    pub fn hamming(&self, i: usize, other: &BinaryCodes, j: usize) -> u32 {
        assert_eq!(self.n_bits, other.n_bits, "bit-width mismatch");
        self.code_words(i)
            .iter()
            .zip(other.code_words(j))
            .map(|(a, b)| (a ^ b).count_ones())
            .sum()
    }

    /// Hamming distance between two codes of this collection.
    pub fn hamming_within(&self, i: usize, j: usize) -> u32 {
        self.hamming(i, self, j)
    }

    /// Decodes code `i` from its packed words into `out` as 0/1 floats (the
    /// representation the decoder consumes), allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_bits()` or `i` is out of range.
    pub fn write_f64_row(&self, i: usize, out: &mut [f64]) {
        assert_eq!(out.len(), self.n_bits, "write_f64_row: length mismatch");
        for (chunk, &word) in out.chunks_mut(64).zip(self.code_words(i)) {
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = ((word >> b) & 1) as f64;
            }
        }
    }

    /// Converts code `i` to a 0/1 `f64` vector.
    pub fn to_f64_row(&self, i: usize) -> Vec<f64> {
        let mut row = vec![0.0; self.n_bits];
        self.write_f64_row(i, &mut row);
        row
    }

    /// Converts all codes to an `N × L` 0/1 matrix.
    pub fn to_matrix(&self) -> Mat {
        let mut m = Mat::zeros(self.len(), self.n_bits);
        for i in 0..self.len() {
            self.write_f64_row(i, m.row_mut(i));
        }
        m
    }

    /// Returns whether code `i` equals the 0/1 (or boolean-like) slice
    /// `bits`, without materialising the stored code as floats. Used by the
    /// Z-step sweeps to detect unchanged codes without a per-point allocation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row_equals(&self, i: usize, bits: &[f64]) -> bool {
        bits.len() == self.n_bits && (0..self.n_bits).all(|b| (bits[b] > 0.5) == self.bit(i, b))
    }

    /// Overwrites code `i` from a 0/1 (or boolean-like) slice.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n_bits()`.
    pub fn set_code(&mut self, i: usize, bits: &[f64]) {
        assert_eq!(bits.len(), self.n_bits, "set_code: length mismatch");
        for (b, &v) in bits.iter().enumerate() {
            self.set_bit(i, b, v > 0.5);
        }
    }

    /// Appends a new code given as a 0/1 (or boolean-like) slice, growing the
    /// collection by one. Used when streaming new data points into a machine
    /// (their codes are initialised from the current encoder, §4.3).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != n_bits()`.
    pub fn push_code(&mut self, bits: &[f64]) {
        assert_eq!(bits.len(), self.n_bits, "push_code: length mismatch");
        self.data
            .extend(std::iter::repeat_n(0, self.words_per_code));
        let i = self.len() - 1;
        self.set_code(i, bits);
    }

    /// Number of positions in which the two collections differ, summed over
    /// all codes. Useful to detect whether a Z step changed anything (the
    /// paper's stopping criterion).
    ///
    /// # Panics
    ///
    /// Panics if the collections have different sizes or bit widths.
    pub fn total_differing_bits(&self, other: &BinaryCodes) -> u64 {
        assert_eq!(self.len(), other.len(), "code count mismatch");
        assert_eq!(self.n_bits, other.n_bits, "bit-width mismatch");
        (0..self.len())
            .map(|i| self.hamming(i, other, i) as u64)
            .sum()
    }

    /// Memory used by the packed codes, in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<u64>()
    }

    /// Overwrites code `dst` of `self` with code `src` of `other` — a word
    /// `memcpy`. Used by the prefix index to place codes into buckets.
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ or either index is out of range.
    pub fn copy_code_from(&mut self, dst: usize, other: &BinaryCodes, src: usize) {
        assert_eq!(self.n_bits, other.n_bits, "bit-width mismatch");
        let w = self.words_per_code;
        self.data[dst * w..(dst + 1) * w].copy_from_slice(&other.data[src * w..(src + 1) * w]);
    }

    /// Overwrites code `dst` with code `src` of the same collection (`src`
    /// and `dst` may be equal). Used for within-bucket swap-removal.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn copy_code_within(&mut self, src: usize, dst: usize) {
        let w = self.words_per_code;
        assert!(
            src < self.len() && dst < self.len(),
            "code index out of range"
        );
        self.data.copy_within(src * w..(src + 1) * w, dst * w);
    }

    /// Appends a copy of code `src` of `other`, growing the collection by
    /// one — a word `memcpy`, unlike the bit-by-bit [`push_code`](Self::push_code).
    ///
    /// # Panics
    ///
    /// Panics if the bit widths differ or `src` is out of range.
    pub fn push_code_from(&mut self, other: &BinaryCodes, src: usize) {
        assert_eq!(self.n_bits, other.n_bits, "bit-width mismatch");
        let w = self.words_per_code;
        self.data
            .extend_from_slice(&other.data[src * w..(src + 1) * w]);
    }

    /// The low `bits` bits of code `i` as an integer: the code's *prefix*,
    /// the bucketing key of the multi-probe index. Bits past `n_bits()` read
    /// as zero (padding bits of the first word are never set), so a prefix
    /// wider than the code simply returns the whole first word's payload.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds 64, or `i` is out of range.
    pub fn prefix_bits(&self, i: usize, bits: usize) -> u64 {
        assert!((1..=64).contains(&bits), "prefix must be 1..=64 bits");
        let word = self.data[i * self.words_per_code];
        if bits == 64 {
            word
        } else {
            word & ((1u64 << bits) - 1)
        }
    }
}

/// A W-step decoder row trains on the codes where they lie: each visited
/// code is decoded into the driver's scratch row.
impl RowSource for BinaryCodes {
    fn dim(&self) -> usize {
        self.n_bits
    }

    fn row<'a>(&'a self, i: usize, scratch: &'a mut [f64]) -> &'a [f64] {
        self.write_f64_row(i, scratch);
        scratch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_bits() {
        let mut c = BinaryCodes::zeros(3, 70); // spans two words
        c.set_bit(1, 0, true);
        c.set_bit(1, 69, true);
        assert!(c.bit(1, 0));
        assert!(c.bit(1, 69));
        assert!(!c.bit(1, 35));
        assert!(!c.bit(0, 0));
        c.set_bit(1, 0, false);
        assert!(!c.bit(1, 0));
    }

    #[test]
    fn hamming_distance_counts_differing_bits() {
        let a = BinaryCodes::from_bools(&[vec![true, false, true, true]]);
        let b = BinaryCodes::from_bools(&[vec![true, true, false, true]]);
        assert_eq!(a.hamming(0, &b, 0), 2);
        assert_eq!(a.hamming(0, &a, 0), 0);
    }

    #[test]
    fn hamming_is_symmetric_and_bounded() {
        let a = BinaryCodes::from_bools(&[vec![true; 16], vec![false; 16]]);
        assert_eq!(a.hamming_within(0, 1), 16);
        assert_eq!(a.hamming_within(1, 0), 16);
    }

    #[test]
    fn matrix_round_trip() {
        let m = Mat::from_rows(&[vec![1.0, 0.0, 1.0], vec![0.0, 0.0, 1.0]]);
        let c = BinaryCodes::from_matrix(&m);
        assert_eq!(c.to_matrix(), m);
        assert_eq!(c.len(), 2);
        assert_eq!(c.n_bits(), 3);
    }

    #[test]
    fn write_f64_row_decodes_every_bit_across_word_boundaries() {
        let mut c = BinaryCodes::zeros(2, 130); // three words per code
        for b in [0, 1, 63, 64, 100, 127, 128, 129] {
            c.set_bit(1, b, true);
        }
        let mut row = vec![f64::NAN; 130];
        c.write_f64_row(1, &mut row);
        for (b, &v) in row.iter().enumerate() {
            assert_eq!(v, if c.bit(1, b) { 1.0 } else { 0.0 }, "bit {b}");
        }
        assert_eq!(c.to_f64_row(1), row);
        assert_eq!(c.to_matrix().row(1), &row[..]);
    }

    #[test]
    fn set_code_and_to_f64_row() {
        let mut c = BinaryCodes::zeros(1, 4);
        c.set_code(0, &[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(c.to_f64_row(0), vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn row_equals_matches_float_comparison() {
        let mut c = BinaryCodes::zeros(1, 4);
        c.set_code(0, &[1.0, 0.0, 0.0, 1.0]);
        assert!(c.row_equals(0, &[1.0, 0.0, 0.0, 1.0]));
        assert!(!c.row_equals(0, &[1.0, 0.0, 1.0, 1.0]));
        assert!(!c.row_equals(0, &[1.0, 0.0, 0.0]));
    }

    #[test]
    fn total_differing_bits_detects_no_change() {
        let a = BinaryCodes::from_bools(&[vec![true, false], vec![false, true]]);
        let mut b = a.clone();
        assert_eq!(a.total_differing_bits(&b), 0);
        b.set_bit(0, 1, true);
        assert_eq!(a.total_differing_bits(&b), 1);
    }

    #[test]
    fn push_code_grows_the_collection() {
        let mut c = BinaryCodes::zeros(2, 70);
        c.push_code(&{
            let mut v = vec![0.0; 70];
            v[0] = 1.0;
            v[69] = 1.0;
            v
        });
        assert_eq!(c.len(), 3);
        assert!(c.bit(2, 0));
        assert!(c.bit(2, 69));
        assert!(!c.bit(2, 35));
        // Existing codes are untouched.
        assert!(!c.bit(0, 0));
    }

    #[test]
    fn memory_is_packed() {
        // 1000 codes of 64 bits = 8000 bytes, versus 512 000 bytes as f64.
        let c = BinaryCodes::zeros(1000, 64);
        assert_eq!(c.memory_bytes(), 8000);
    }

    #[test]
    #[should_panic(expected = "bit-width mismatch")]
    fn hamming_rejects_mismatched_widths() {
        let a = BinaryCodes::zeros(1, 8);
        let b = BinaryCodes::zeros(1, 16);
        let _ = a.hamming(0, &b, 0);
    }

    #[test]
    fn as_words_exposes_the_row_major_packed_layout() {
        let mut c = BinaryCodes::zeros(3, 70); // two words per code
        c.set_bit(1, 0, true);
        c.set_bit(2, 69, true);
        assert_eq!(c.words_per_code(), 2);
        let words = c.as_words();
        assert_eq!(words.len(), 6);
        assert_eq!(&words[2..4], c.code_words(1));
        assert_eq!(words[2], 1);
        assert_eq!(words[5], 1 << 5); // bit 69 = word 1, bit 5
    }

    #[test]
    fn append_codes_concatenates_without_rebuilding() {
        let a0 = BinaryCodes::from_bools(&[vec![true, false, true]]);
        let b = BinaryCodes::from_bools(&[vec![false, true, true], vec![true, true, false]]);
        let mut a = a0.clone();
        a.append_codes(&b);
        assert_eq!(a.len(), 3);
        for bit in 0..3 {
            assert_eq!(a.bit(0, bit), a0.bit(0, bit));
            assert_eq!(a.bit(1, bit), b.bit(0, bit));
            assert_eq!(a.bit(2, bit), b.bit(1, bit));
        }
    }

    #[test]
    #[should_panic(expected = "bit-width mismatch")]
    fn append_codes_rejects_mismatched_widths() {
        let mut a = BinaryCodes::zeros(1, 8);
        a.append_codes(&BinaryCodes::zeros(1, 9));
    }

    #[test]
    fn copy_and_push_codes_move_whole_words() {
        let src = BinaryCodes::from_bools(&[vec![true; 70], vec![false; 70]]);
        let mut dst = BinaryCodes::zeros(2, 70);
        dst.copy_code_from(1, &src, 0);
        assert_eq!(dst.code_words(1), src.code_words(0));
        assert_eq!(dst.code_words(0), &[0, 0]);
        dst.copy_code_within(1, 0);
        assert_eq!(dst.code_words(0), src.code_words(0));
        dst.push_code_from(&src, 1);
        assert_eq!(dst.len(), 3);
        assert_eq!(dst.code_words(2), src.code_words(1));
    }

    #[test]
    fn prefix_bits_reads_the_low_bits_and_pads_with_zero() {
        let mut c = BinaryCodes::zeros(1, 6);
        c.set_code(0, &[1.0, 0.0, 1.0, 0.0, 0.0, 1.0]); // word 0 = 0b100101
        assert_eq!(c.prefix_bits(0, 3), 0b101);
        assert_eq!(c.prefix_bits(0, 6), 0b100101);
        // Wider than the code: padding bits read as zero.
        assert_eq!(c.prefix_bits(0, 16), 0b100101);
        assert_eq!(c.prefix_bits(0, 64), 0b100101);
    }

    #[test]
    #[should_panic(expected = "bit-width mismatch")]
    fn copy_code_from_rejects_mismatched_widths() {
        let mut a = BinaryCodes::zeros(1, 8);
        let b = BinaryCodes::zeros(1, 16);
        a.copy_code_from(0, &b, 0);
    }

    #[test]
    fn bit_boundary_at_64_bits() {
        let mut c = BinaryCodes::zeros(1, 128);
        c.set_bit(0, 63, true);
        c.set_bit(0, 64, true);
        assert!(c.bit(0, 63));
        assert!(c.bit(0, 64));
        assert_eq!(c.code_words(0)[0], 1 << 63);
        assert_eq!(c.code_words(0)[1], 1);
    }
}
