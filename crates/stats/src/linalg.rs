//! Minimal dense linear algebra, from scratch — just enough to support
//! covariate adjustment: column-major matrices, Cholesky factorization of
//! symmetric positive-definite systems, and least squares via the normal
//! equations. Cohort design matrices here are tall and thin (n patients ×
//! a handful of covariates), where normal equations are accurate and fast.

/// A dense column-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// Column-major storage: element (r, c) at `data[c * rows + r]`.
    data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from columns (each of equal length).
    pub fn from_columns(columns: &[Vec<f64>]) -> Self {
        assert!(!columns.is_empty(), "need at least one column");
        let rows = columns[0].len();
        assert!(rows > 0, "columns must be non-empty");
        let mut m = Matrix::zeros(rows, columns.len());
        for (c, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), rows, "ragged columns");
            m.data[c * rows..(c + 1) * rows].copy_from_slice(col);
        }
        m
    }

    /// A design matrix: a leading all-ones intercept column followed by
    /// the given covariate columns.
    pub fn design(n: usize, covariates: &[Vec<f64>]) -> Self {
        let mut cols = Vec::with_capacity(covariates.len() + 1);
        cols.push(vec![1.0; n]);
        for c in covariates {
            assert_eq!(c.len(), n, "covariate length mismatch");
            cols.push(c.clone());
        }
        Matrix::from_columns(&cols)
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[c * self.rows + r]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[c * self.rows + r] = v;
    }

    #[inline]
    pub fn column(&self, c: usize) -> &[f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// `self · v`.
    pub fn mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0; self.rows];
        for (c, &vc) in v.iter().enumerate() {
            let col = self.column(c);
            for (o, &x) in out.iter_mut().zip(col) {
                *o += x * vc;
            }
        }
        out
    }

    /// `selfᵀ · v`.
    pub fn tr_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "dimension mismatch");
        (0..self.cols)
            .map(|c| self.column(c).iter().zip(v).map(|(a, b)| a * b).sum())
            .collect()
    }

    /// Gram matrix `selfᵀ · self` (symmetric, cols × cols).
    pub fn gram(&self) -> Matrix {
        let p = self.cols;
        let mut g = Matrix::zeros(p, p);
        for i in 0..p {
            for j in i..p {
                let dot: f64 = self
                    .column(i)
                    .iter()
                    .zip(self.column(j))
                    .map(|(a, b)| a * b)
                    .sum();
                g.set(i, j, dot);
                g.set(j, i, dot);
            }
        }
        g
    }
}

/// Lower-triangular Cholesky factor of a symmetric positive-definite
/// matrix (`A = L·Lᵀ`), enabling O(p²) solves.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
}

/// Failure modes of the factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinalgError {
    /// The matrix is not (numerically) positive definite — for a design
    /// Gram matrix this means collinear covariates.
    NotPositiveDefinite { pivot: usize },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite { pivot } => {
                write!(
                    f,
                    "matrix not positive definite at pivot {pivot} (collinear columns?)"
                )
            }
        }
    }
}

impl std::error::Error for LinalgError {}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix.
    pub fn factor(a: &Matrix) -> Result<Self, LinalgError> {
        assert_eq!(a.rows, a.cols, "Cholesky needs a square matrix");
        let p = a.rows;
        let mut l = Matrix::zeros(p, p);
        for j in 0..p {
            let mut diag = a.get(j, j);
            for k in 0..j {
                let ljk = l.get(j, k);
                diag -= ljk * ljk;
            }
            if diag <= 0.0 || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let diag = diag.sqrt();
            l.set(j, j, diag);
            for i in (j + 1)..p {
                let mut v = a.get(i, j);
                for k in 0..j {
                    v -= l.get(i, k) * l.get(j, k);
                }
                l.set(i, j, v / diag);
            }
        }
        Ok(Cholesky { l })
    }

    /// Solve `A x = b` via forward/backward substitution.
    #[allow(clippy::needless_range_loop)] // textbook triangular-solve form
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let p = self.l.rows;
        assert_eq!(b.len(), p, "dimension mismatch");
        // Forward: L y = b.
        let mut y = vec![0.0; p];
        for i in 0..p {
            let mut v = b[i];
            for k in 0..i {
                v -= self.l.get(i, k) * y[k];
            }
            y[i] = v / self.l.get(i, i);
        }
        // Backward: Lᵀ x = y.
        let mut x = vec![0.0; p];
        for i in (0..p).rev() {
            let mut v = y[i];
            for k in (i + 1)..p {
                v -= self.l.get(k, i) * x[k];
            }
            x[i] = v / self.l.get(i, i);
        }
        x
    }
}

/// Ordinary least squares: coefficients β minimizing ‖y − Xβ‖².
pub fn least_squares(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let chol = Cholesky::factor(&x.gram())?;
    Ok(chol.solve(&x.tr_mul_vec(y)))
}

/// Residuals of `y` after projecting out the column space of `x`
/// (`y − X (XᵀX)⁻¹ Xᵀ y`).
pub fn residualize(x: &Matrix, y: &[f64]) -> Result<Vec<f64>, LinalgError> {
    let beta = least_squares(x, y)?;
    let fitted = x.mul_vec(&beta);
    Ok(y.iter().zip(&fitted).map(|(a, b)| a - b).collect())
}

/// How many patients each pass of the blocked multiplier kernel streams
/// before revisiting the accumulators (`I_TILE × K × 8` bytes of `Z` stay
/// cache-resident: 256 × 32 doubles = 64 KiB at the default tile).
const PERTURB_I_TILE: usize = 256;

/// Blocked Monte Carlo multiplier kernel — the GEMM-shaped core of
/// Algorithm 3. Computes `out[r·k + kk] = Σ_i rows[r][i] · Z[i·k + kk]`:
/// each of `k` replicates' perturbed scores `Ũ_j = Σ_i Z_i U_ij` for every
/// given `U` row, in one pass over the rows instead of `k`.
///
/// * `rows` — a gather of `U` rows (the cached contributions), each
///   `num_patients` long. Rows need not be contiguous: this is the shape
///   each partition of the distributed resampling grid holds, and the
///   sequential oracle passes the rows still live in a round.
/// * `z_tile` — patient-major `num_patients × k` multiplier tile
///   (`z_tile[i·k + kk]` = replicate `kk`'s weight for patient `i`).
/// * `out` — replicate-major `rows.len() × k` output.
///
/// Bitwise contract: for each `(r, kk)` the accumulation is a single chain
/// of `acc += u·z` in patient order — exactly the fold a per-replicate
/// dot product performs — so results are bit-identical to running the
/// replicates one at a time, and independent of which other rows are in
/// the gather. Patient-tiling only reorders *which* chain is advanced
/// next, never the order within a chain; the vectorizable parallelism
/// comes from the `k` independent chains in the inner loop. A grid of
/// these cells therefore reproduces the single-task kernel bit for bit.
pub fn perturb_rows_blocked(
    rows: &[&[f64]],
    num_patients: usize,
    z_tile: &[f64],
    k: usize,
    out: &mut [f64],
) {
    assert_eq!(z_tile.len(), num_patients * k, "Z tile dimensions");
    assert_eq!(out.len(), rows.len() * k, "output dimensions");
    for row in rows {
        assert_eq!(row.len(), num_patients, "U row length");
    }
    out.fill(0.0);
    let mut i0 = 0;
    while i0 < num_patients {
        let i1 = (i0 + PERTURB_I_TILE).min(num_patients);
        for (u_row, acc) in rows.iter().zip(out.chunks_exact_mut(k)) {
            for i in i0..i1 {
                let ui = u_row[i];
                let z_row = &z_tile[i * k..][..k];
                for (a, &zk) in acc.iter_mut().zip(z_row) {
                    *a += ui * zk;
                }
            }
        }
        i0 = i1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b}");
    }

    #[test]
    fn matrix_basics() {
        let m = Matrix::from_columns(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!((m.rows(), m.cols()), (2, 2));
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.mul_vec(&[1.0, 1.0]), vec![4.0, 6.0]);
        assert_eq!(m.tr_mul_vec(&[1.0, 1.0]), vec![3.0, 7.0]);
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let m = Matrix::from_columns(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 1.0]]);
        let g = m.gram();
        assert_eq!(g.get(0, 0), 5.0);
        assert_eq!(g.get(1, 1), 10.0);
        assert_eq!(g.get(0, 1), 2.0);
        assert_eq!(g.get(1, 0), 2.0);
    }

    #[test]
    fn cholesky_solves_known_system() {
        // A = [[4, 2], [2, 3]], b = [8, 7]  →  x = [1.25, 1.5].
        let a = Matrix::from_columns(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let chol = Cholesky::factor(&a).unwrap();
        let x = chol.solve(&[8.0, 7.0]);
        close(x[0], 1.25, 1e-12);
        close(x[1], 1.5, 1e-12);
    }

    #[test]
    fn cholesky_rejects_singular() {
        // Perfectly collinear columns → singular Gram matrix.
        let x = Matrix::from_columns(&[vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]]);
        assert!(matches!(
            Cholesky::factor(&x.gram()),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn least_squares_recovers_exact_coefficients() {
        // y = 2 + 3·x exactly.
        let xs = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let y: Vec<f64> = xs.iter().map(|x| 2.0 + 3.0 * x).collect();
        let design = Matrix::design(5, &[xs]);
        let beta = least_squares(&design, &y).unwrap();
        close(beta[0], 2.0, 1e-10);
        close(beta[1], 3.0, 1e-10);
    }

    #[test]
    fn residualize_removes_covariate_signal() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![2.0, 4.0, 6.0, 8.0]; // y = 2x: fully explained.
        let design = Matrix::design(4, &[xs]);
        let r = residualize(&design, &y).unwrap();
        for v in r {
            close(v, 0.0, 1e-10);
        }
    }

    #[test]
    fn design_prepends_intercept() {
        let d = Matrix::design(3, &[vec![5.0, 6.0, 7.0]]);
        assert_eq!(d.column(0), &[1.0, 1.0, 1.0]);
        assert_eq!(d.column(1), &[5.0, 6.0, 7.0]);
    }

    /// Per-replicate reference for the blocked kernel: one dot product
    /// per `(SNP, replicate)`, folded in patient order.
    fn perturb_naive(u: &[f64], m: usize, n: usize, z: &[f64], k: usize) -> Vec<f64> {
        let mut out = vec![0.0; m * k];
        for j in 0..m {
            for kk in 0..k {
                out[j * k + kk] = (0..n).map(|i| u[j * n + i] * z[i * k + kk]).sum();
            }
        }
        out
    }

    #[test]
    fn perturb_blocked_is_bitwise_identical_to_naive() {
        // Sizes straddle the patient tile (256) to exercise the tile seam;
        // equality is exact, not approximate.
        for &(m, n, k) in &[
            (3usize, 7usize, 1usize),
            (5, 256, 4),
            (4, 300, 3),
            (2, 513, 8),
        ] {
            let u: Vec<f64> = (0..m * n).map(|v| (v as f64 * 0.37).sin()).collect();
            let z: Vec<f64> = (0..n * k).map(|v| (v as f64 * 0.71).cos()).collect();
            let rows: Vec<&[f64]> = u.chunks_exact(n).collect();
            let mut out = vec![f64::NAN; m * k];
            perturb_rows_blocked(&rows, n, &z, k, &mut out);
            assert_eq!(out, perturb_naive(&u, m, n, &z, k), "m={m} n={n} k={k}");
        }
    }

    #[test]
    fn perturb_blocked_handles_empty_snp_set() {
        let mut out = vec![];
        perturb_rows_blocked(&[], 10, &[0.5; 20], 2, &mut out);
        assert!(out.is_empty());
    }

    proptest! {
        /// Residuals are orthogonal to every design column.
        #[test]
        fn prop_residual_orthogonality(
            seed_y in proptest::collection::vec(-10.0f64..10.0, 8..30),
            seed_x in proptest::collection::vec(-5.0f64..5.0, 8..30),
        ) {
            let n = seed_y.len().min(seed_x.len());
            let y = &seed_y[..n];
            let x = seed_x[..n].to_vec();
            let design = Matrix::design(n, &[x]);
            if let Ok(r) = residualize(&design, y) {
                for c in 0..design.cols() {
                    let dot: f64 = design.column(c).iter().zip(&r).map(|(a, b)| a * b).sum();
                    prop_assert!(dot.abs() < 1e-6, "column {c} dot {dot}");
                }
            }
        }

        /// Cholesky solve inverts mul for random SPD matrices (AᵀA + I).
        #[test]
        fn prop_cholesky_round_trip(
            vals in proptest::collection::vec(-3.0f64..3.0, 9..=9),
            rhs in proptest::collection::vec(-5.0f64..5.0, 3..=3),
        ) {
            let base = Matrix::from_columns(&[
                vals[0..3].to_vec(), vals[3..6].to_vec(), vals[6..9].to_vec(),
            ]);
            let mut spd = base.gram();
            for i in 0..3 {
                spd.set(i, i, spd.get(i, i) + 1.0); // ensure PD
            }
            let chol = Cholesky::factor(&spd).unwrap();
            let x = chol.solve(&rhs);
            let back = spd.mul_vec(&x);
            for (a, b) in back.iter().zip(&rhs) {
                prop_assert!((a - b).abs() < 1e-8, "{a} vs {b}");
            }
        }
    }
}
