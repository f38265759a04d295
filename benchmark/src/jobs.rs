//! Seeded job generators. `--seed` reaches the system only through the
//! job descriptions made here; cluster seeds are fixed per workload.

use fuxi_cluster::SubmitOpts;
use fuxi_job::JobDesc;
use fuxi_workloads::mapreduce::{wordcount_job, MapReduceParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Which job family a live workload streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Zero-duration, zero-byte jobs: 1–3 maps (mean 2) + 1 reduce on at
    /// most 2 workers. All time a null job spends in the system is the
    /// control plane's.
    Null,
    /// Small paced jobs for the failover run: 3–5 maps (mean 4) + 1 reduce,
    /// 40–60 ms tasks, 1 MB packages, so a job outlives a scheduling round
    /// and the package/flow path stays exercised.
    Paced,
}

/// Deterministic stream of job descriptions for one `(seed, kind)`.
pub struct JobGen {
    rng: SmallRng,
    kind: JobKind,
}

impl JobGen {
    pub fn new(seed: u64, kind: JobKind) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            kind,
        }
    }

    pub fn next_job(&mut self) -> JobDesc {
        match self.kind {
            JobKind::Null => wordcount_job(&MapReduceParams {
                maps: self.rng.gen_range(1..4),
                reduces: 1,
                map_duration_s: 0.0,
                reduce_duration_s: 0.0,
                jitter: 0.0,
                max_workers: 2,
                binary_mb: 0.0,
                map_output_mb: 0.0,
                ..Default::default()
            }),
            JobKind::Paced => {
                let d = self.rng.gen_range(0.04..0.06);
                wordcount_job(&MapReduceParams {
                    maps: self.rng.gen_range(3..6),
                    reduces: 1,
                    map_duration_s: d,
                    reduce_duration_s: d,
                    jitter: 0.2,
                    max_workers: 4,
                    binary_mb: 1.0,
                    map_output_mb: 0.2,
                    ..Default::default()
                })
            }
        }
    }

    /// Submission options matching the kind's package size.
    pub fn submit_opts(&self) -> SubmitOpts {
        SubmitOpts {
            master_package_mb: match self.kind {
                JobKind::Null => 0.0,
                JobKind::Paced => 1.0,
            },
            ..SubmitOpts::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_jobs_other_seed_other_jobs() {
        let stream = |seed| {
            let mut g = JobGen::new(seed, JobKind::Paced);
            (0..20).map(|_| g.next_job().to_json()).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn null_jobs_carry_no_work() {
        let mut g = JobGen::new(1, JobKind::Null);
        for _ in 0..50 {
            let j = g.next_job();
            for t in j.tasks.values() {
                assert_eq!(t.duration_s, 0.0);
                assert_eq!(t.binary_mb, 0.0);
                assert!((1..=3).contains(&t.instances));
            }
        }
        assert_eq!(g.submit_opts().master_package_mb, 0.0);
    }
}
