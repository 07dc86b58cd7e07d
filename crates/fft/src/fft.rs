//! Radix-2 iterative complex FFT.
//!
//! A small, dependency-free Cooley–Tukey implementation: bit-reversal permutation
//! followed by iterative butterfly passes. It is the compute kernel of the distributed
//! 3D FFT workload and doubles as the calibration probe for the compute-phase model.

/// A complex number (double precision).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    fn zero() -> Self {
        Self::default()
    }

    /// Complex multiplication.
    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    /// Complex addition.
    fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    /// Complex subtraction.
    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }

    /// `e^{i theta}`.
    fn from_polar(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }
}

/// In-place forward FFT. The length must be a power of two.
pub fn fft_forward(data: &mut [Complex]) {
    fft_in_place(data, false);
}

/// In-place inverse FFT (includes the `1/n` normalization). The length must be a power
/// of two.
pub fn fft_inverse(data: &mut [Complex]) {
    fft_in_place(data, true);
    let n = data.len() as f64;
    for x in data.iter_mut() {
        x.re /= n;
        x.im /= n;
    }
}

fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(
        n.is_power_of_two(),
        "FFT length must be a power of two, got {n}"
    );
    if n <= 1 {
        return;
    }
    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
    // Iterative butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2usize;
    while len <= n {
        let angle = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar(angle);
        for start in (0..n).step_by(len) {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let even = data[start + k];
                let odd = data[start + k + len / 2].mul(w);
                data[start + k] = even.add(odd);
                data[start + k + len / 2] = even.sub(odd);
                w = w.mul(wlen);
            }
        }
        len <<= 1;
    }
}

/// Reference O(n²) DFT used as a test oracle.
pub fn naive_dft(input: &[Complex]) -> Vec<Complex> {
    let n = input.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::zero();
            for (j, &x) in input.iter().enumerate() {
                let theta = -2.0 * std::f64::consts::PI * (k * j) as f64 / n as f64;
                acc = acc.add(x.mul(Complex::from_polar(theta)));
            }
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex, tol: f64) -> bool {
        (a.re - b.re).abs() < tol && (a.im - b.im).abs() < tol
    }

    #[test]
    fn matches_naive_dft() {
        let input: Vec<Complex> = (0..16)
            .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 0.3).cos()))
            .collect();
        let expected = naive_dft(&input);
        let mut data = input.clone();
        fft_forward(&mut data);
        for (a, b) in data.iter().zip(&expected) {
            assert!(close(*a, *b, 1e-9), "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn roundtrip_recovers_input() {
        let input: Vec<Complex> = (0..64)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut data = input.clone();
        fft_forward(&mut data);
        fft_inverse(&mut data);
        for (a, b) in data.iter().zip(&input) {
            assert!(close(*a, *b, 1e-9));
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let mut data = vec![Complex::zero(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_forward(&mut data);
        for x in &data {
            assert!(close(*x, Complex::new(1.0, 0.0), 1e-12));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let input: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sqrt(), (i % 5) as f64))
            .collect();
        let time_energy: f64 = input.iter().map(|x| x.re.hypot(x.im).powi(2)).sum();
        let mut freq = input.clone();
        fft_forward(&mut freq);
        let freq_energy: f64 = freq.iter().map(|x| x.re.hypot(x.im).powi(2)).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_is_rejected() {
        let mut data = vec![Complex::zero(); 12];
        fft_forward(&mut data);
    }
}
