//! Slab-decomposed distributed 3D FFT workload model (Fig. 6).
//!
//! The paper runs FFTW with slab decomposition on the 27-node torus: each process
//! (1) computes 2D FFTs on its slab of planes and packs the send buffer, (2) runs a
//! global all-to-all to transpose the data, and (3) unpacks and finishes the remaining
//! 1D FFTs. The communication phase is exactly the all-to-all this library schedules;
//! the compute phases are modelled from a calibration of the local radix-2 FFT kernel
//! (`seconds per point per log2(n)`), which preserves the *relative* weight of compute
//! vs. communication that Fig. 6 visualises.

use std::time::Instant;

use crate::fft::{fft_forward, Complex};

/// Calibration constant of the local FFT kernel.
#[derive(Debug, Clone, Copy)]
pub struct FftCalibration {
    /// Seconds per point per log2(length), measured on this machine.
    pub seconds_per_point_log: f64,
}

impl FftCalibration {
    /// Measures the constant by timing a handful of mid-sized transforms.
    pub fn measure() -> Self {
        let n = 1usize << 16;
        let mut data: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.001).sin(), (i as f64 * 0.002).cos()))
            .collect();
        // Warm-up pass.
        fft_forward(&mut data);
        let reps = 4;
        let start = Instant::now();
        for _ in 0..reps {
            fft_forward(&mut data);
        }
        let elapsed = start.elapsed().as_secs_f64() / reps as f64;
        Self {
            seconds_per_point_log: elapsed / (n as f64 * (n as f64).log2()),
        }
    }

    /// Predicted time of an FFT workload of `points` total points with transforms of
    /// length `transform_len`.
    fn predict(&self, points: f64, transform_len: f64) -> f64 {
        self.seconds_per_point_log * points * transform_len.max(2.0).log2()
    }
}

/// Per-phase breakdown of one distributed 3D FFT execution (seconds), matching the
/// stacked bands of Fig. 6.
#[derive(Debug, Clone, Copy)]
pub struct FftBreakdown {
    /// Local 2D FFTs + packing of the all-to-all send buffer.
    pub compute_pack_seconds: f64,
    /// The all-to-all transpose.
    pub alltoall_seconds: f64,
    /// Unpacking + the remaining 1D FFTs.
    pub unpack_compute_seconds: f64,
}

impl FftBreakdown {
    /// Total wall-clock time of the 3D FFT.
    pub fn total_seconds(&self) -> f64 {
        self.compute_pack_seconds + self.alltoall_seconds + self.unpack_compute_seconds
    }
}

/// The slab-decomposed 3D FFT workload: a `grid³` complex-double volume distributed
/// over `processes` ranks.
#[derive(Debug, Clone, Copy)]
pub struct SlabFft3d {
    /// Grid width (the paper evaluates 729 and 1296).
    pub grid: usize,
    /// Number of processes (27 on the TACC torus).
    pub processes: usize,
}

impl SlabFft3d {
    /// Creates the workload description.
    pub fn new(grid: usize, processes: usize) -> Self {
        assert!(grid > 0 && processes > 0);
        Self { grid, processes }
    }

    /// Total all-to-all buffer per process in bytes: each process holds `grid³ / P`
    /// complex doubles (16 bytes) and exchanges essentially all of them during the
    /// transpose.
    pub fn alltoall_buffer_bytes(&self) -> f64 {
        self.grid.pow(3) as f64 * 16.0 / self.processes as f64
    }

    /// Shard size in bytes for the all-to-all (the per-destination slice of the
    /// transpose).
    pub fn shard_bytes(&self) -> f64 {
        self.alltoall_buffer_bytes() / self.processes as f64
    }

    /// Models the three phases given the measured all-to-all completion time and the
    /// kernel calibration.
    pub fn breakdown(&self, alltoall_seconds: f64, calibration: &FftCalibration) -> FftBreakdown {
        let points_per_process = self.grid.pow(3) as f64 / self.processes as f64;
        // Phase 1: 2D FFTs over each plane of the slab — every point participates in
        // two 1D transforms of length `grid`, plus a packing pass (counted as one more
        // touch per point, folded into the same constant).
        let compute_pack_seconds = 2.0 * calibration.predict(points_per_process, self.grid as f64);
        // Phase 3: the remaining 1D FFTs along the third dimension.
        let unpack_compute_seconds = calibration.predict(points_per_process, self.grid as f64);
        FftBreakdown {
            compute_pack_seconds,
            alltoall_seconds,
            unpack_compute_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_sizes_match_paper_scale() {
        // 1296³ grid over 27 processes: ~1.29 GB of all-to-all buffer per process.
        let wl = SlabFft3d::new(1296, 27);
        let gb = wl.alltoall_buffer_bytes() / 1e9;
        assert!((gb - 1.29).abs() < 0.05, "buffer {gb} GB");
        // 729³: ~0.23 GB.
        let wl = SlabFft3d::new(729, 27);
        assert!(wl.alltoall_buffer_bytes() / 1e9 < 0.3);
        assert!(wl.shard_bytes() > 0.0);
    }

    #[test]
    fn calibration_is_positive_and_stable() {
        let c = FftCalibration::measure();
        assert!(c.seconds_per_point_log > 0.0);
        assert!(
            c.seconds_per_point_log < 1e-3,
            "implausibly slow FFT kernel"
        );
        let t = c.predict(1e6, 1024.0);
        assert!(t > 0.0);
    }

    #[test]
    fn breakdown_scales_with_grid() {
        let calibration = FftCalibration {
            seconds_per_point_log: 1e-9,
        };
        let small = SlabFft3d::new(128, 27).breakdown(0.1, &calibration);
        let large = SlabFft3d::new(512, 27).breakdown(0.1, &calibration);
        assert!(large.compute_pack_seconds > small.compute_pack_seconds);
        assert!(large.total_seconds() > small.total_seconds());
        assert_eq!(small.alltoall_seconds, 0.1);
        // Pack phase (two transforms' worth) dominates the unpack phase.
        assert!(small.compute_pack_seconds > small.unpack_compute_seconds);
    }
}
