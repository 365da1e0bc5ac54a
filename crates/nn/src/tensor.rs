//! A small dense matrix type sufficient for fully connected networks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A row-major dense matrix of `f64`.
///
/// # Examples
///
/// ```
/// use mavfi_nn::tensor::Matrix;
///
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
/// assert_eq!(m.matvec(&[1.0, 1.0]), vec![3.0, 7.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Creates a matrix from explicit row vectors.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or the input is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix must have at least one column");
        assert!(rows.iter().all(|row| row.len() == cols), "rows must have equal length");
        Self { rows: rows.len(), cols, data: rows.concat() }
    }

    /// Creates a matrix with Xavier/Glorot-uniform random entries, suitable
    /// for initialising dense layers deterministically from a seed.
    pub fn xavier(rows: usize, cols: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        let data = (0..rows * cols).map(|_| rng.gen_range(-limit..limit)).collect();
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Mutable element accessor.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn get_mut(&mut self, row: usize, col: usize) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "matrix index out of bounds");
        &mut self.data[row * self.cols + col]
    }

    /// Raw data slice in row-major order.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows);
        self.matvec_into(x, &mut out);
        out
    }

    /// Matrix-vector product `self * x` written into a caller-provided
    /// buffer, so hot loops can reuse one allocation across calls.  The
    /// buffer is cleared and refilled; its capacity is reused.  Produces
    /// bit-identical results to [`Matrix::matvec`] (same per-row summation
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in matvec");
        out.clear();
        for row in 0..self.rows {
            let offset = row * self.cols;
            out.push(
                self.data[offset..offset + self.cols].iter().zip(x).map(|(w, xi)| w * xi).sum(),
            );
        }
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.rows()`.
    pub fn matvec_transposed(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.rows, "dimension mismatch in transposed matvec");
        let mut out = vec![0.0; self.cols];
        for (row, xi) in x.iter().enumerate() {
            let offset = row * self.cols;
            for (col, out_value) in out.iter_mut().enumerate() {
                *out_value += self.data[offset + col] * xi;
            }
        }
        out
    }

    /// Adds `scale * outer(a, b)` into this matrix (used for gradient
    /// accumulation: `dW += delta ⊗ input`).
    ///
    /// # Panics
    ///
    /// Panics if dimensions do not match.
    pub fn add_outer(&mut self, a: &[f64], b: &[f64], scale: f64) {
        assert_eq!(a.len(), self.rows, "outer product row dimension mismatch");
        assert_eq!(b.len(), self.cols, "outer product column dimension mismatch");
        for (row, ai) in a.iter().enumerate() {
            let offset = row * self.cols;
            for (col, bj) in b.iter().enumerate() {
                self.data[offset + col] += scale * ai * bj;
            }
        }
    }

    /// Scales every element in place.
    pub fn scale(&mut self, factor: f64) {
        for value in &mut self.data {
            *value *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
    }

    #[test]
    fn transposed_matvec_matches_hand_computation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.matvec_transposed(&[1.0, 1.0, 1.0]), vec![9.0, 12.0]);
    }

    #[test]
    fn outer_product_accumulates() {
        let mut m = Matrix::zeros(2, 3);
        m.add_outer(&[1.0, 2.0], &[1.0, 0.0, -1.0], 0.5);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(1, 2), -1.0);
        m.scale(2.0);
        assert_eq!(m.get(0, 0), 1.0);
    }

    #[test]
    fn xavier_is_deterministic_and_bounded() {
        let a = Matrix::xavier(4, 5, 11);
        let b = Matrix::xavier(4, 5, 11);
        assert_eq!(a, b);
        let limit = (6.0 / 9.0_f64).sqrt();
        assert!(a.as_slice().iter().all(|w| w.abs() <= limit));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_dimension_mismatch_panics() {
        Matrix::zeros(2, 2).matvec(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
