//! # a2a-fft
//!
//! The distributed 3D Fast Fourier Transform workload of Fig. 6.
//!
//! * [`fft`] — a self-contained radix-2 complex FFT (the numerical kernel each node
//!   runs on its slab), used both for correctness tests and for calibrating the
//!   compute-phase cost model.
//! * [`dist3d`] — the slab-decomposed 3D FFT model: every process performs 2D FFTs on
//!   its slab, participates in a global all-to-all transpose (executed on an
//!   `a2a_simnet` schedule), then finishes with 1D FFTs. The model reports the same
//!   three stacked phases the paper plots in Fig. 6.

pub mod dist3d;
pub mod fft;

pub use dist3d::{FftBreakdown, FftCalibration, SlabFft3d};
pub use fft::{fft_forward, fft_inverse, naive_dft, Complex};
