//! Per-job state leaves with its job: what a live cluster keeps on the heap
//! grows by well under a kilobyte per finished job.
//!
//! One test alone in its binary, because the counting allocator below sees
//! every allocation of the process. Printing the per-size-class breakdown
//! (`-- --nocapture`) is the probe for finding what a job left behind:
//!
//! ```sh
//! cargo test --release --test per_job_memory -- --nocapture
//! ```

use fuxi::cluster::{ClusterConfig, SubmitOpts};
use fuxi::rt::LiveCluster;
use fuxi::sim::TracerConfig;
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};

/// Live heap bytes, and live allocations per power-of-two size class.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static LIVE_BY_CLASS: [AtomicI64; 64] = [const { AtomicI64::new(0) }; 64];

fn class(size: usize) -> usize {
    size.next_power_of_two().trailing_zeros() as usize
}

fn track(size: usize, sign: i64) {
    LIVE_BYTES.fetch_add(sign * size as i64, Ordering::Relaxed);
    LIVE_BY_CLASS[class(size)].fetch_add(sign, Ordering::Relaxed);
}

// SAFETY: every call goes unchanged to the system allocator, which keeps
// `GlobalAlloc`'s contract; the bookkeeping is atomics and allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 1);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(layout.size(), -1);
        track(new_size, 1);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn heap() -> (i64, [i64; 64]) {
    let by_class = std::array::from_fn(|i| LIVE_BY_CLASS[i].load(Ordering::Relaxed));
    (LIVE_BYTES.load(Ordering::Relaxed), by_class)
}

/// The benchmark's null job: 1–3 maps + 1 reduce, no work, no bytes.
fn null_job(maps: u32) -> fuxi::job::JobDesc {
    wordcount_job(&MapReduceParams {
        maps,
        reduces: 1,
        map_duration_s: 0.0,
        reduce_duration_s: 0.0,
        jitter: 0.0,
        max_workers: 2,
        binary_mb: 0.0,
        map_output_mb: 0.0,
        ..Default::default()
    })
}

/// Runs jobs at `in_flight` until `total` have finished, then lets the
/// agents' sweeps notice the exited JobMasters and the actor threads reap.
fn run_to(c: &mut LiveCluster, submitted: &mut usize, total: usize, in_flight: usize) {
    let opts = SubmitOpts { master_package_mb: 0.0, ..SubmitOpts::default() };
    let deadline = Instant::now() + Duration::from_secs(300);
    while c.finished_count() < total {
        assert!(Instant::now() < deadline, "{} of {total} jobs finished", c.finished_count());
        while *submitted < total && *submitted - c.finished_count() < in_flight {
            c.submit(&null_job(1 + (*submitted % 3) as u32), &opts);
            *submitted += 1;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(2500));
}

#[test]
fn a_finished_job_leaves_under_700_bytes_behind() {
    const WARM: usize = 1_000;
    const TOTAL: usize = 3_000;
    let mut c = LiveCluster::new(ClusterConfig {
        n_machines: 32,
        rack_size: 8,
        obs: TracerConfig { enabled: false },
        ..ClusterConfig::default()
    });
    let mut submitted = 0;
    run_to(&mut c, &mut submitted, WARM, 128);
    let (bytes0, classes0) = heap();
    run_to(&mut c, &mut submitted, TOTAL, 128);
    let (bytes1, classes1) = heap();
    let jobs = (TOTAL - WARM) as f64;
    let per_job = (bytes1 - bytes0) as f64 / jobs;
    let by_class: Vec<String> = (0..64)
        .filter(|&i| classes1[i] != classes0[i])
        .map(|i| format!("≤{} B: {:+.2}/job", 1u64 << i, (classes1[i] - classes0[i]) as f64 / jobs))
        .collect();
    eprintln!("heap retained per finished job: {per_job:.0} B; live allocations by size class: {by_class:?}");
    assert_eq!(c.duplicate_finishes(), 0);
    c.shutdown();
    assert!(per_job < 700.0, "{per_job:.0} B of heap kept per finished job: {by_class:?}");
}
