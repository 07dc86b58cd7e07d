//! Obs-core contract tests: span balance across threads, deterministic
//! merge, disabled-mode cost model, Chrome-trace round-trip, and the
//! no-silent-caps rule. Obs state is process-global, so every test
//! serializes on one lock and leaves the switch off and buffers empty.

use a2a_obs::{chrome, summary, Counter};
use std::sync::Mutex;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn clean_slate() {
    a2a_obs::disable();
    a2a_obs::reset();
    let _ = a2a_obs::flush();
}

#[test]
fn disabled_mode_records_nothing() {
    let _g = locked();
    clean_slate();
    static DISABLED_CTR: Counter = Counter::new("test.disabled_ctr");

    assert!(!a2a_obs::is_enabled());
    {
        let _s = a2a_obs::span("test.disabled_span");
        a2a_obs::instant("test.disabled_instant");
        DISABLED_CTR.add(7);
    }
    let data = a2a_obs::flush();
    assert!(
        data.threads.iter().all(|t| t.events.is_empty()),
        "disabled spans must record no events"
    );
    assert_eq!(DISABLED_CTR.value(), 0, "disabled counters stay untouched");
    assert!(
        !data.counters.iter().any(|c| c.name == "test.disabled_ctr"),
        "disabled counters must not even register"
    );
}

/// Emits the same logical workload either on the calling thread (1-way) or
/// across `ways` scoped threads: `ways * reps` `price` spans, each nesting
/// an `inner` span plus one instant.
fn pricing_like_workload(ways: usize, reps: usize) {
    static SWEEP_CTR: Counter = Counter::new("test.sweep_sources");
    let work = |reps: usize| {
        for _ in 0..reps {
            let _p = a2a_obs::span("price");
            SWEEP_CTR.incr();
            {
                let _i = a2a_obs::span("inner");
                a2a_obs::instant("tick");
            }
        }
    };
    if ways <= 1 {
        work(reps * 4);
    } else {
        std::thread::scope(|s| {
            for _ in 0..ways {
                s.spawn(|| work(reps * 4 / ways));
            }
        });
    }
}

#[test]
fn spans_balance_one_vs_four_threads_with_deterministic_merge() {
    let _g = locked();
    clean_slate();

    let run = |ways: usize| {
        a2a_obs::reset();
        a2a_obs::enable();
        {
            let _root = a2a_obs::span("sweep");
            pricing_like_workload(ways, 8);
        }
        a2a_obs::disable();
        let data = a2a_obs::flush();
        // Deterministic merge: threads sorted by ordinal, events in
        // recording order (timestamps non-decreasing within a thread).
        for pair in data.threads.windows(2) {
            assert!(pair[0].ordinal < pair[1].ordinal);
        }
        for t in &data.threads {
            for pair in t.events.windows(2) {
                assert!(pair[0].ts_nanos <= pair[1].ts_nanos);
            }
        }
        summary::summarize(&data)
    };

    let s1 = run(1);
    let s4 = run(4);
    for s in [&s1, &s4] {
        assert!(s.is_balanced(), "unbalanced: {}", s.render());
        assert_eq!(s.dropped_events, 0);
    }
    // Same spans, same counts, same counters at any thread count — only
    // wall-clock durations may differ.
    let names1: Vec<(String, u64)> = s1
        .totals_by_name()
        .into_iter()
        .map(|(k, v)| (k, v.0))
        .collect();
    let names4: Vec<(String, u64)> = s4
        .totals_by_name()
        .into_iter()
        .map(|(k, v)| (k, v.0))
        .collect();
    assert_eq!(names1, names4);
    assert_eq!(s1.count("price"), 32);
    assert_eq!(s1.count("inner"), 32);
    assert_eq!(s1.count("tick"), 32);
    assert_eq!(s1.count("sweep"), 1);
    let c1: Vec<&(String, u64)> = s1
        .counters
        .iter()
        .filter(|(n, _)| n == "test.sweep_sources")
        .collect();
    let c4: Vec<&(String, u64)> = s4
        .counters
        .iter()
        .filter(|(n, _)| n == "test.sweep_sources")
        .collect();
    assert_eq!(c1, c4);
    assert_eq!(c1[0].1, 32);
    clean_slate();
}

#[test]
fn summary_tree_nests_and_accounts_self_time() {
    let _g = locked();
    clean_slate();
    a2a_obs::enable();
    {
        let _o = a2a_obs::span("outer");
        std::thread::sleep(std::time::Duration::from_millis(4));
        {
            let _m = a2a_obs::span("mid");
            std::thread::sleep(std::time::Duration::from_millis(4));
        }
    }
    a2a_obs::disable();
    let s = summary::summarize(&a2a_obs::flush());
    assert!(s.is_balanced());
    let outer = &s.root.children[0];
    assert_eq!(outer.name, "outer");
    assert_eq!(outer.children.len(), 1);
    assert_eq!(outer.children[0].name, "mid");
    assert!(outer.total_secs >= outer.children[0].total_secs);
    assert!(outer.self_secs > 0.0, "outer slept outside mid");
    assert!((outer.self_secs - (outer.total_secs - outer.children[0].total_secs)).abs() < 1e-12);
    clean_slate();
}

#[test]
fn chrome_trace_round_trips_through_parser() {
    let _g = locked();
    clean_slate();
    static RT_CTR: Counter = Counter::new("test.roundtrip_ctr");
    a2a_obs::enable();
    {
        let _a = a2a_obs::span("solve");
        RT_CTR.add(3);
        {
            let _b = a2a_obs::span("factor");
        }
        a2a_obs::instant("engaged");
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let _c = a2a_obs::span("child");
                });
            }
        });
    }
    a2a_obs::disable();
    let data = a2a_obs::flush();
    let text = chrome::chrome_trace_string(&data);

    let events = chrome::parse_chrome_trace(&text).expect("trace must parse");
    let recorded: usize = data.threads.iter().map(|t| t.events.len()).sum();
    let be_or_i = events
        .iter()
        .filter(|e| matches!(e.ph, 'B' | 'E' | 'i'))
        .count();
    assert_eq!(be_or_i, recorded, "every buffered event must serialize");

    let check = chrome::validate_chrome_trace(&text).expect("trace must validate");
    assert_eq!(check.complete_spans, 4, "solve + factor + 2x child");
    assert_eq!(check.instants, 1);
    assert!(check.max_depth >= 2, "factor nests under solve");
    assert!(
        events
            .iter()
            .any(|e| e.ph == 'C' && e.name == "test.roundtrip_ctr"),
        "counter snapshot must serialize"
    );
    clean_slate();
}

#[test]
fn validator_rejects_unbalanced_traces() {
    let _g = locked();
    let bad =
        "[\n{\"name\":\"x\",\"cat\":\"a2a\",\"ph\":\"B\",\"ts\":1.000,\"pid\":1,\"tid\":0}\n]\n";
    assert!(chrome::validate_chrome_trace(bad).is_err());
    let mismatched = "[\n{\"name\":\"x\",\"ph\":\"B\",\"ts\":1.0,\"pid\":1,\"tid\":0},\n{\"name\":\"y\",\"ph\":\"E\",\"ts\":2.0,\"pid\":1,\"tid\":0}\n]\n";
    assert!(chrome::validate_chrome_trace(mismatched).is_err());
}

#[test]
fn buffer_cap_reports_dropped_events() {
    let _g = locked();
    clean_slate();
    a2a_obs::set_max_events_per_thread(10);
    a2a_obs::enable();
    for _ in 0..20 {
        let _s = a2a_obs::span("capped");
    }
    a2a_obs::disable();
    let data = a2a_obs::flush();
    a2a_obs::set_max_events_per_thread(1 << 22);
    let recorded: usize = data.threads.iter().map(|t| t.events.len()).sum();
    assert_eq!(recorded, 10);
    assert_eq!(data.dropped_events, 30, "20 spans = 40 events, 10 kept");
    let s = summary::summarize(&data);
    assert!(s.render().contains("dropped"), "drops must be surfaced");
    clean_slate();
}
