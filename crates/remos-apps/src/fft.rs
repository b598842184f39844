//! Fast Fourier transforms.
//!
//! Two layers:
//! * a **real kernel** — an iterative radix-2 complex FFT and a 2-D FFT,
//!   used by the examples and to justify the flop model;
//! * the **program model** [`fft_program`] — the phase structure of the
//!   paper's parallel 2-D FFT: "a set of independent 1 dimensional row
//!   FFTs, followed by a transpose, and a set of independent 1
//!   dimensional column FFTs" (§8), plus the transpose back that restores
//!   the row-major distribution.

use crate::calib;
use remos_fx::{CommPattern, Phase, Program};
use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A complex number (f64 re/im) — self-contained so the kernel has no
/// external numeric dependencies.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Constructor.
    pub fn new(re: f64, im: f64) -> Complex {
        Complex { re, im }
    }

    /// e^{iθ}.
    pub fn cis(theta: f64) -> Complex {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Magnitude.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

/// In-place iterative radix-2 FFT. `data.len()` must be a power of two.
/// `inverse` computes the unscaled inverse transform (divide by n to
/// invert exactly).
pub fn fft(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT size {n} must be a power of two");
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u32).reverse_bits() >> (32 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::cis(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[start + k];
                let v = data[start + k + len / 2] * w;
                data[start + k] = u + v;
                data[start + k + len / 2] = u - v;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
}

/// Out-of-place transpose of an n×n row-major matrix.
pub fn transpose(data: &[Complex], n: usize) -> Vec<Complex> {
    assert_eq!(data.len(), n * n);
    let mut out = vec![Complex::default(); n * n];
    for r in 0..n {
        for c in 0..n {
            out[c * n + r] = data[r * n + c];
        }
    }
    out
}

/// 2-D FFT of an n×n row-major matrix: row FFTs, transpose, column (now
/// row) FFTs, transpose back — the exact phase structure the parallel
/// program model mirrors.
pub fn fft2d(data: &mut Vec<Complex>, n: usize, inverse: bool) {
    assert_eq!(data.len(), n * n);
    for row in data.chunks_mut(n) {
        fft(row, inverse);
    }
    *data = transpose(data, n);
    for row in data.chunks_mut(n) {
        fft(row, inverse);
    }
    *data = transpose(data, n);
}

/// The parallel 2-D FFT program model for an n×n transform on `p` ranks.
///
/// Per run: row FFTs (n/p rows per rank), transpose (all-to-all of
/// `n²/p²` complex values per pair), column FFTs, transpose back.
pub fn fft_program(n: usize, p: usize) -> Program {
    assert!(n.is_power_of_two() && p >= 1);
    let rows_flops = n as f64 * calib::fft_1d_flops(n); // all rows
    let pair_bytes = (calib::COMPLEX_BYTES * (n * n) as u64) / (p * p) as u64;
    let transpose_phase = Phase::Comm(CommPattern::AllToAll { bytes_per_pair: pair_bytes });
    Program {
        name: format!("FFT ({n})"),
        ranks: p,
        startup: vec![],
        body: vec![
            Phase::Compute { parallel_flops: rows_flops, replicated_flops: 0.0 },
            transpose_phase.clone(),
            Phase::Compute { parallel_flops: rows_flops, replicated_flops: 0.0 },
            transpose_phase,
        ],
        iterations: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(input: &[Complex]) -> Vec<Complex> {
        let n = input.len();
        (0..n)
            .map(|k| {
                let mut acc = Complex::default();
                for (t, &x) in input.iter().enumerate() {
                    acc = acc + x * Complex::cis(-2.0 * PI * (k * t) as f64 / n as f64);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn fft_matches_naive_dft() {
        let input: Vec<Complex> =
            (0..16).map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.7).cos())).collect();
        let mut data = input.clone();
        fft(&mut data, false);
        let expected = naive_dft(&input);
        for (a, b) in data.iter().zip(&expected) {
            assert!((*a - *b).abs() < 1e-9, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn fft_inverse_roundtrip() {
        let input: Vec<Complex> =
            (0..64).map(|i| Complex::new(i as f64 * 0.1, -(i as f64) * 0.05)).collect();
        let mut data = input.clone();
        fft(&mut data, false);
        fft(&mut data, true);
        for (a, b) in data.iter().zip(&input) {
            let scaled = Complex::new(a.re / 64.0, a.im / 64.0);
            assert!((scaled - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft(&mut data, false);
        for v in &data {
            assert!((v.re - 1.0).abs() < 1e-12 && v.im.abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut data = vec![Complex::default(); 12];
        fft(&mut data, false);
    }

    #[test]
    fn transpose_involution() {
        let n = 4;
        let data: Vec<Complex> =
            (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let tt = transpose(&transpose(&data, n), n);
        assert_eq!(tt, data);
        let t = transpose(&data, n);
        assert_eq!(t[n + 2], data[2 * n + 1]);
    }

    #[test]
    fn fft2d_roundtrip() {
        let n = 16;
        let input: Vec<Complex> =
            (0..n * n).map(|i| Complex::new(i as f64, -(i as f64))).collect();
        let mut data = input.clone();
        fft2d(&mut data, n, false);
        fft2d(&mut data, n, true);
        let scale = (n * n) as f64;
        for (a, b) in data.iter().zip(&input) {
            assert!((Complex::new(a.re / scale, a.im / scale) - *b).abs() < 1e-6);
        }
    }

    #[test]
    fn program_shape() {
        let p = fft_program(512, 4);
        assert_eq!(p.ranks, 4);
        assert_eq!(p.iterations, 1);
        assert_eq!(p.body.len(), 4);
        // Transpose volume: total redistributed bytes per transpose is
        // (p²-p) pairs * 16*n²/p² = 16 n² (p-1)/p.
        let per_pair = (16 * 512 * 512 / 16) as u64;
        match &p.body[1] {
            Phase::Comm(CommPattern::AllToAll { bytes_per_pair }) => {
                assert_eq!(*bytes_per_pair, per_pair)
            }
            other => panic!("expected transpose, got {other:?}"),
        }
    }

    #[test]
    fn program_scales_down_with_ranks() {
        let p2 = fft_program(512, 2);
        let p4 = fft_program(512, 4);
        assert!(p4.total_comm_bytes() > p2.total_comm_bytes());
        // Total flops are rank-independent (no replicated work).
        assert!((p2.total_flops() - p4.total_flops()).abs() < 1.0);
    }
}
