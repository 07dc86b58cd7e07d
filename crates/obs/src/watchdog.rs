//! In-process stall watchdog: detects iteration-rate collapse, misprice
//! loops, and objective plateaus from samples the solvers hand it at
//! natural boundaries (simplex refactorizations, colgen rounds). No
//! threads, no signals — a solve that is making progress pays one `Option`
//! check per boundary, and a disabled watchdog (the default) costs the
//! same.
//!
//! The watchdog is configured process-globally ([`configure`]); each solve
//! creates its own [`StallWatchdog`] via [`StallWatchdog::if_configured`]
//! so that interleaved solves (a decomposed master and its children, say)
//! never pollute each other's rate windows. On a trip the watchdog emits a
//! structured diagnostic dump — the recent trajectory window plus a
//! snapshot of every nonzero counter — on stderr, increments the
//! process-wide trip count ([`total_trips`]), and returns `true` so the
//! caller can surface `watchdog_trips` in its stats.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Thresholds for the three detectors. `Default` gives conservative values
/// that stay silent on every healthy solve in this repo's test suite.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WatchdogConfig {
    /// Iteration-rate collapse: trip when the per-window iteration rate
    /// falls below this fraction of the peak window rate seen this solve.
    pub rate_collapse_frac: f64,
    /// Windows with a below-threshold rate needed consecutively to trip.
    pub rate_consecutive: usize,
    /// Windows observed before the collapse detector arms (the first few
    /// refactorization windows are warm-up noise).
    pub rate_warmup_windows: usize,
    /// Windows shorter than this wall time are ignored for rate purposes
    /// (too noisy to divide by).
    pub min_window_wall_secs: f64,
    /// Objective plateau: consecutive colgen rounds where the objective
    /// moved by less than `plateau_rel_tol * (1 + |objective|)` while
    /// columns were still being added.
    pub plateau_rounds: usize,
    pub plateau_rel_tol: f64,
    /// Misprice loop: consecutive colgen rounds that mispriced.
    pub misprice_rounds: usize,
    /// Trajectory samples kept for the diagnostic dump.
    pub window: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            rate_collapse_frac: 0.02,
            rate_consecutive: 3,
            rate_warmup_windows: 4,
            min_window_wall_secs: 1e-3,
            plateau_rounds: 16,
            plateau_rel_tol: 1e-10,
            misprice_rounds: 6,
            window: 8,
        }
    }
}

static CONFIG: Mutex<Option<WatchdogConfig>> = Mutex::new(None);
static TOTAL_TRIPS: AtomicU64 = AtomicU64::new(0);

/// Trips are also surfaced as a counter so they show up in summaries and
/// stage breakdowns when instrumentation is enabled.
static OBS_TRIPS: crate::Counter = crate::Counter::new("watchdog.trips");

/// Installs (or with `None`, removes) the process-global watchdog config.
/// Solves started after the call pick it up; running solves keep the
/// config they copied at start.
pub fn configure(cfg: Option<WatchdogConfig>) {
    if let Ok(mut slot) = CONFIG.lock() {
        *slot = cfg;
    }
}

/// Current process-global config, if any.
pub fn config() -> Option<WatchdogConfig> {
    CONFIG.lock().ok().and_then(|slot| *slot)
}

/// Process-wide trips since the last [`reset_trips`]. Independent of the
/// tracing switch: a configured watchdog counts trips even with
/// instrumentation off.
pub fn total_trips() -> u64 {
    TOTAL_TRIPS.load(Ordering::Relaxed)
}

/// Zeroes [`total_trips`] (test hook).
pub fn reset_trips() {
    TOTAL_TRIPS.store(0, Ordering::Relaxed);
}

/// Why a watchdog tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TripReason {
    IterationRateCollapse,
    MispriceLoop,
    ObjectivePlateau,
}

impl TripReason {
    fn tag(self) -> &'static str {
        match self {
            TripReason::IterationRateCollapse => "iteration-rate collapse",
            TripReason::MispriceLoop => "misprice loop",
            TripReason::ObjectivePlateau => "objective plateau",
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Sample {
    /// Round number (colgen) or cumulative iterations (simplex).
    tick: u64,
    objective: f64,
    /// Window rate (simplex) or dual violation (colgen) — context-specific
    /// second signal, labeled in the dump.
    aux: f64,
    wall_secs: f64,
}

/// Per-solve stall detector. Create one per solve with
/// [`StallWatchdog::if_configured`] and feed it at refactorization/round
/// boundaries; `None` (watchdog off) is the zero-cost path.
#[derive(Debug)]
pub struct StallWatchdog {
    ctx: &'static str,
    cfg: WatchdogConfig,
    samples: VecDeque<Sample>,
    // Simplex rate state.
    last_iterations: u64,
    last_wall: f64,
    peak_rate: f64,
    windows_seen: usize,
    slow_streak: usize,
    // Colgen round state.
    last_objective: Option<f64>,
    plateau_streak: usize,
    misprice_streak: usize,
    trips: u64,
}

impl StallWatchdog {
    /// Returns a watchdog iff one is configured process-globally. The
    /// config is copied, so a solve's thresholds are stable even if
    /// [`configure`] is called mid-solve.
    pub fn if_configured(ctx: &'static str) -> Option<StallWatchdog> {
        config().map(|cfg| StallWatchdog {
            ctx,
            cfg,
            samples: VecDeque::new(),
            last_iterations: 0,
            last_wall: 0.0,
            peak_rate: 0.0,
            windows_seen: 0,
            slow_streak: 0,
            last_objective: None,
            plateau_streak: 0,
            misprice_streak: 0,
            trips: 0,
        })
    }

    /// Trips recorded by this watchdog instance.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Feed one simplex progress sample (cumulative iterations and wall
    /// seconds since the solve started) at a refactorization boundary.
    /// Returns `true` if the iteration-rate-collapse detector tripped.
    pub fn observe_simplex(&mut self, iterations: u64, wall_secs: f64, objective: f64) -> bool {
        let d_iter = iterations.saturating_sub(self.last_iterations);
        let d_wall = wall_secs - self.last_wall;
        self.last_iterations = iterations;
        self.last_wall = wall_secs;
        if d_wall < self.cfg.min_window_wall_secs {
            return false;
        }
        let rate = d_iter as f64 / d_wall;
        self.push_sample(Sample {
            tick: iterations,
            objective,
            aux: rate,
            wall_secs,
        });
        self.windows_seen += 1;
        if rate > self.peak_rate {
            self.peak_rate = rate;
        }
        if self.windows_seen <= self.cfg.rate_warmup_windows {
            return false;
        }
        if rate < self.cfg.rate_collapse_frac * self.peak_rate {
            self.slow_streak += 1;
        } else {
            self.slow_streak = 0;
        }
        if self.slow_streak >= self.cfg.rate_consecutive {
            let detail = format!(
                "rate {rate:.0} iters/s < {:.1}% of peak {:.0} iters/s for {} windows",
                self.cfg.rate_collapse_frac * 100.0,
                self.peak_rate,
                self.slow_streak,
            );
            self.trip(TripReason::IterationRateCollapse, &detail, "rate");
            // Re-arm rather than re-trip every window: the collapsed rate
            // becomes the new reference peak.
            self.slow_streak = 0;
            self.peak_rate = rate;
            return true;
        }
        false
    }

    /// Feed one colgen round at its boundary. Returns `true` if the
    /// misprice-loop or objective-plateau detector tripped.
    pub fn observe_round(
        &mut self,
        round: usize,
        objective: f64,
        dual_violation: f64,
        columns_added: usize,
        mispriced: bool,
    ) -> bool {
        self.push_sample(Sample {
            tick: round as u64,
            objective,
            aux: dual_violation,
            wall_secs: 0.0,
        });
        let mut tripped = false;
        if mispriced {
            self.misprice_streak += 1;
        } else {
            self.misprice_streak = 0;
        }
        if self.misprice_streak >= self.cfg.misprice_rounds {
            let detail = format!(
                "{} consecutive mispriced rounds (round {round}, violation {dual_violation:.3e})",
                self.misprice_streak,
            );
            self.trip(TripReason::MispriceLoop, &detail, "violation");
            self.misprice_streak = 0;
            tripped = true;
        }
        if let Some(prev) = self.last_objective {
            let tol = self.cfg.plateau_rel_tol * (1.0 + objective.abs());
            if columns_added > 0 && (objective - prev).abs() <= tol {
                self.plateau_streak += 1;
            } else {
                self.plateau_streak = 0;
            }
        }
        self.last_objective = Some(objective);
        if self.plateau_streak >= self.cfg.plateau_rounds {
            let detail = format!(
                "objective flat at {objective:.6e} for {} rounds while columns still entering",
                self.plateau_streak,
            );
            self.trip(TripReason::ObjectivePlateau, &detail, "violation");
            self.plateau_streak = 0;
            tripped = true;
        }
        tripped
    }

    fn push_sample(&mut self, s: Sample) {
        if self.samples.len() >= self.cfg.window.max(1) {
            self.samples.pop_front();
        }
        self.samples.push_back(s);
    }

    #[cold]
    fn trip(&mut self, reason: TripReason, detail: &str, aux_label: &str) {
        self.trips += 1;
        TOTAL_TRIPS.fetch_add(1, Ordering::Relaxed);
        OBS_TRIPS.incr();
        // Straight to stderr, stamped with the obs clock so the dump lines up
        // with trace-event timestamps.
        let secs = crate::now_nanos() as f64 / 1e9;
        let say = |line: std::fmt::Arguments<'_>| {
            eprintln!("[{secs:9.3}s  WARN] watchdog[{}]: {line}", self.ctx);
        };
        say(format_args!("{}: {detail}", reason.tag()));
        let window: Vec<String> = self
            .samples
            .iter()
            .map(|s| {
                if s.wall_secs > 0.0 {
                    format!(
                        "(tick={} obj={:.6e} {aux_label}={:.3e} wall={:.3}s)",
                        s.tick, s.objective, s.aux, s.wall_secs
                    )
                } else {
                    format!(
                        "(tick={} obj={:.6e} {aux_label}={:.3e})",
                        s.tick, s.objective, s.aux
                    )
                }
            })
            .collect();
        say(format_args!("recent window: {}", window.join(" ")));
        let counters: Vec<String> = crate::counter_snapshot()
            .into_iter()
            .filter(|c| c.value > 0)
            .map(|c| format!("{}={}", c.name, c.value))
            .collect();
        if !counters.is_empty() {
            say(format_args!("counters: {}", counters.join(" ")));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight() -> WatchdogConfig {
        WatchdogConfig {
            rate_collapse_frac: 0.1,
            rate_consecutive: 2,
            rate_warmup_windows: 1,
            min_window_wall_secs: 1e-6,
            plateau_rounds: 3,
            plateau_rel_tol: 1e-9,
            misprice_rounds: 2,
            window: 4,
        }
    }

    #[test]
    fn unconfigured_watchdog_is_none() {
        configure(None);
        assert!(StallWatchdog::if_configured("test").is_none());
    }

    #[test]
    fn rate_collapse_trips_after_consecutive_slow_windows() {
        configure(Some(tight()));
        let mut wd = StallWatchdog::if_configured("test").unwrap();
        configure(None);
        // Healthy windows: 1e6 iters/s.
        let mut iters = 0u64;
        let mut wall = 0.0;
        for _ in 0..3 {
            iters += 1000;
            wall += 1e-3;
            assert!(!wd.observe_simplex(iters, wall, 1.0));
        }
        // Collapse: 10 iters over 1ms = 1e4 iters/s < 10% of 1e6.
        iters += 10;
        wall += 1e-3;
        assert!(!wd.observe_simplex(iters, wall, 1.0), "streak of 1");
        iters += 10;
        wall += 1e-3;
        assert!(wd.observe_simplex(iters, wall, 1.0), "streak of 2 trips");
        assert_eq!(wd.trips(), 1);
        // Re-armed: the collapsed rate is the new peak, so staying there
        // does not re-trip immediately.
        iters += 10;
        wall += 1e-3;
        assert!(!wd.observe_simplex(iters, wall, 1.0));
    }

    #[test]
    fn misprice_loop_and_plateau_trip_on_round_stream() {
        configure(Some(tight()));
        let mut wd = StallWatchdog::if_configured("test").unwrap();
        configure(None);
        assert!(!wd.observe_round(1, 10.0, 0.5, 4, true));
        assert!(wd.observe_round(2, 9.0, 0.5, 4, true), "2 misprices trip");
        assert_eq!(wd.trips(), 1);
        // Plateau: flat objective while columns keep entering.
        assert!(!wd.observe_round(3, 8.0, 0.1, 4, false));
        assert!(!wd.observe_round(4, 8.0, 0.1, 4, false));
        assert!(!wd.observe_round(5, 8.0, 0.1, 4, false));
        assert!(wd.observe_round(6, 8.0, 0.1, 4, false), "3 flat rounds");
        assert_eq!(wd.trips(), 2);
        // No columns added -> not a plateau (that's convergence).
        assert!(!wd.observe_round(7, 8.0, 0.0, 0, false));
    }
}
