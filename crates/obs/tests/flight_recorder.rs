//! Flight-recorder stress tests: wraparound under heavy multi-writer
//! load with a reader draining mid-flight, and the post-mortem dump path.
//!
//! The ring is process-global, so every assertion filters on the names
//! this file records — other tests in the binary can run concurrently.

use esched_obs::recorder::{self, FlightKind, FlightRecord};
use esched_obs::{Pool, RequestId, RequestScope};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

const WRITERS: usize = 8;
const RECORDS_PER_WRITER: u64 = 100_000;

/// The enabled flag and the ring are process-global, so the tests in
/// this binary must not overlap (one toggling `set_enabled` would drop
/// another's writes).
fn serialize() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn stress_records(snap: &[FlightRecord]) -> Vec<&FlightRecord> {
    snap.iter().filter(|r| r.name == "fr_stress").collect()
}

/// 8 writers × 100k records each, with a reader snapshotting throughout.
/// Every observed record must be whole (its payload internally
/// consistent), epochs must be strictly increasing within a snapshot, and
/// the snapshot size must never exceed the ring capacity.
#[test]
fn concurrent_writers_with_mid_flight_reader() {
    let _guard = serialize();
    recorder::set_enabled(true);
    let name = recorder::name_id("fr_stress");
    let done = Arc::new(AtomicBool::new(false));

    let reader_done = Arc::clone(&done);
    let reader = std::thread::spawn(move || {
        let mut drains = 0u64;
        while !reader_done.load(Ordering::Relaxed) {
            let snap = recorder::snapshot();
            assert!(
                snap.len() <= recorder::capacity(),
                "snapshot exceeds ring capacity: {}",
                snap.len()
            );
            let mut prev_epoch = 0u64;
            for r in stress_records(&snap) {
                // Writer w encodes (w+1) as the request and stamps the
                // value with the same writer id in the high bits — a torn
                // read (payload from two different writes) breaks the
                // pairing.
                let writer = r.request;
                assert!(
                    (1..=WRITERS as u64).contains(&writer),
                    "corrupt request field {writer}"
                );
                assert_eq!(
                    r.value >> 32,
                    writer,
                    "torn record: writer tag {} under request {writer}",
                    r.value >> 32
                );
                assert!((r.value & 0xFFFF_FFFF) < RECORDS_PER_WRITER);
                assert_eq!(r.kind, FlightKind::Counter);
                assert!(
                    r.epoch > prev_epoch,
                    "epochs not strictly increasing: {} after {}",
                    r.epoch,
                    prev_epoch
                );
                prev_epoch = r.epoch;
            }
            drains += 1;
        }
        drains
    });

    std::thread::scope(|scope| {
        for w in 0..WRITERS as u64 {
            scope.spawn(move || {
                for k in 0..RECORDS_PER_WRITER {
                    recorder::record_for(FlightKind::Counter, name, w + 1, ((w + 1) << 32) | k);
                }
            });
        }
    });
    done.store(true, Ordering::Relaxed);
    let drains = reader.join().expect("reader panicked");
    assert!(drains > 0, "reader never ran");

    // After the dust settles: the ring wrapped many times (800k writes
    // into a much smaller ring) yet stays bounded, and the survivors are
    // all from the newest epochs.
    let snap = recorder::snapshot();
    assert!(snap.len() <= recorder::capacity());
    let survivors = stress_records(&snap);
    assert!(
        !survivors.is_empty(),
        "no stress records survived in the ring"
    );
    let total = WRITERS as u64 * RECORDS_PER_WRITER;
    assert!(
        (survivors.len() as u64) < total,
        "ring never wrapped — capacity check is vacuous"
    );
}

/// Wraparound on a single shard: a single thread writing far more
/// records than one shard holds keeps only the newest ones.
#[test]
fn single_writer_wraparound_keeps_newest() {
    let _guard = serialize();
    recorder::set_enabled(true);
    let name = recorder::name_id("fr_wrap");
    let writes = 4 * recorder::capacity() as u64;
    for k in 0..writes {
        recorder::record_for(FlightKind::Event, name, 0, k);
    }
    let snap = recorder::snapshot();
    let mine: Vec<u64> = snap
        .iter()
        .filter(|r| r.name == "fr_wrap")
        .map(|r| r.value)
        .collect();
    assert!(!mine.is_empty());
    assert!(mine.len() <= recorder::capacity());
    // This thread writes a single shard round-robin, so the shard holds
    // exactly the newest SLOTS_PER_SHARD values, in epoch order.
    let lo = *mine.first().unwrap();
    assert_eq!(mine.last(), Some(&(writes - 1)), "newest record missing");
    assert_eq!(
        mine.len() as u64,
        writes - lo,
        "gap in the surviving suffix"
    );
}

/// Disabling the recorder makes writes invisible (and free).
#[test]
fn disabled_recorder_drops_writes() {
    let _guard = serialize();
    let name = recorder::name_id("fr_disabled");
    recorder::set_enabled(false);
    recorder::record_for(FlightKind::Event, name, 0, 1);
    recorder::set_enabled(true);
    let snap = recorder::snapshot();
    assert!(
        !snap.iter().any(|r| r.name == "fr_disabled"),
        "disabled write leaked into the ring"
    );
}

/// A flight record written inside a pool job carries the request of the
/// thread that submitted it, on a batch worker, a team member and a
/// join's second thread alike.
#[test]
fn pool_jobs_record_under_the_submitting_request() {
    let _guard = serialize();
    recorder::set_enabled(true);
    let id = RequestId::next();
    let _scope = RequestScope::enter(id);
    let pool = Pool::with_threads(2);
    pool.batch_map_with(
        || (),
        (0..2u64).collect(),
        |(), k| esched_obs::flight_event!("fr_pool_batch", k),
    );
    pool.team(
        |member, phase: u64| esched_obs::flight_event!("fr_pool_team", 2 * phase + member as u64),
        |team| {
            team.run(0);
            team.run(1);
        },
    );
    pool.join(
        || esched_obs::flight_event!("fr_pool_join", 0),
        || esched_obs::flight_event!("fr_pool_join", 1),
    );
    let snap = recorder::snapshot();
    let mine: Vec<&FlightRecord> = snap
        .iter()
        .filter(|r| r.name.starts_with("fr_pool_"))
        .collect();
    assert_eq!(mine.len(), 8, "{mine:?}");
    assert!(
        mine.iter().all(|r| r.request == id.as_u64()),
        "a pool job recorded outside its request: {mine:?}"
    );
}
