//! Named counters: statics at instrumentation sites, relaxed atomics, lazy
//! self-registration into a global registry so [`crate::flush`] can enumerate
//! them without any central declaration list.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// Monotonic event counter. Declare as a `static` next to the code it
/// counts:
///
/// ```
/// use a2a_obs::Counter;
/// static REFACTORIZATIONS: Counter = Counter::new("lp.refactorizations");
/// REFACTORIZATIONS.incr();
/// ```
///
/// Disabled cost: one relaxed load. Enabled cost: one relaxed load plus one
/// relaxed `fetch_add` (plus a one-time registry insertion on first use).
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::is_enabled() {
            return;
        }
        if !self.registered.load(Ordering::Relaxed) {
            self.register_slow();
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    #[cold]
    fn register_slow(&'static self) {
        let Ok(mut reg) = COUNTERS.lock() else {
            return;
        };
        // Re-check under the lock: two threads can both see `registered`
        // false, but only the first to take the lock inserts.
        if !self.registered.load(Ordering::Relaxed) {
            reg.push(self);
            self.registered.store(true, Ordering::Relaxed);
        }
    }
}

/// Point-in-time counter value captured by [`crate::flush`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: &'static str,
    pub value: u64,
}

pub(crate) fn snapshot() -> Vec<CounterSnapshot> {
    let mut out: Vec<CounterSnapshot> = match COUNTERS.lock() {
        Ok(reg) => reg
            .iter()
            .map(|c| CounterSnapshot {
                name: c.name,
                value: c.value(),
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    out.sort_by_key(|s| s.name);
    out
}

pub(crate) fn reset_all() {
    if let Ok(reg) = COUNTERS.lock() {
        for c in reg.iter() {
            c.value.store(0, Ordering::Relaxed);
        }
    }
}
