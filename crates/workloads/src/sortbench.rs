//! GraySort / PetaSort benchmark jobs (§5.3, Table 4).
//!
//! A two-phase external sort: map instances read input chunks (locally when
//! scheduling permits), partition and spill; reduce instances shuffle-fetch
//! from every map machine, merge and write. All I/O is data-driven through
//! the flow model, so disk and NIC contention — the real determinants of
//! sort throughput — are simulated rather than assumed.

use fuxi_job::desc::{Endpoint, JobDesc, PipeDesc, TaskDesc};
use std::collections::BTreeMap;

/// Sort benchmark parameters.
#[derive(Debug, Clone)]
pub struct SortParams {
    /// Total data to sort, GB.
    pub total_gb: f64,
    /// Input chunk size, MB (one map instance per chunk group).
    pub chunk_mb: f64,
    /// Map instances.
    pub maps: u32,
    /// Reduce (partition) instances.
    pub reduces: u32,
    /// In-memory processing rate per instance, MB/s.
    pub compute_mb_per_s: f64,
    /// Worker containers per task (bounded by cluster slots).
    pub max_workers: u32,
    /// Instance resources.
    pub cpu: f64,
    /// Memory per instance, MB.
    pub memory_mb: u64,
    /// Worker binary size.
    pub binary_mb: f64,
    /// Concurrent shuffle fetches per reduce instance.
    pub fetch_fanout: u32,
    /// Name of the pre-created input file in Pangu.
    pub input_file: String,
    /// DFS path the final output is written to.
    pub output_file: String,
}

impl SortParams {
    /// The paper's GraySort run: 100 TB over 5,000 nodes, scaled by
    /// `scale` ∈ (0, 1] for smaller clusters (data and parallelism shrink
    /// together, preserving per-node load).
    pub fn graysort(scale: f64) -> SortParams {
        let scale = scale.clamp(0.001, 1.0);
        let total_gb = 100_000.0 * scale;
        // ~512 MB of input per map instance: 200k maps at full scale.
        let maps = ((total_gb * 1024.0 / 512.0).round() as u32).max(4);
        // ~20 GB per reduce: 5,000 reduces at full scale.
        let reduces = ((total_gb / 20.0).round() as u32).max(2);
        SortParams {
            total_gb,
            chunk_mb: 256.0,
            maps,
            reduces,
            compute_mb_per_s: 400.0,
            max_workers: 0,
            cpu: 1.0,
            memory_mb: 4096,
            binary_mb: 400.0,
            fetch_fanout: 8,
            input_file: "graysort/input".to_owned(),
            output_file: "pangu://graysort/output".to_owned(),
        }
    }

    /// Per map input mb.
    pub fn per_map_input_mb(&self) -> f64 {
        self.total_gb * 1024.0 / self.maps as f64
    }

    /// Per reduce output mb.
    pub fn per_reduce_output_mb(&self) -> f64 {
        self.total_gb * 1024.0 / self.reduces as f64
    }
}

/// Builds the sort job description. The input file must exist in Pangu
/// before submission (chunked at `chunk_mb`).
pub fn graysort_job(p: &SortParams) -> JobDesc {
    let map = TaskDesc {
        executable: "bin/sort_map".to_owned(),
        instances: p.maps,
        cpu: p.cpu,
        memory_mb: p.memory_mb,
        duration_s: 0.0,
        duration_jitter: 0.0,
        // Spill equals input: each map writes its partitioned runs.
        output_mb_per_instance: p.per_map_input_mb(),
        data_driven: true,
        compute_mb_per_s: p.compute_mb_per_s,
        max_workers: p.max_workers,
        binary_mb: p.binary_mb,
        fetch_fanout: p.fetch_fanout,
        ..TaskDesc::synthetic(p.maps, 0.0)
    };
    let reduce = TaskDesc {
        executable: "bin/sort_reduce".to_owned(),
        instances: p.reduces,
        cpu: p.cpu,
        memory_mb: p.memory_mb,
        duration_s: 0.0,
        duration_jitter: 0.0,
        output_mb_per_instance: p.per_reduce_output_mb(),
        data_driven: true,
        compute_mb_per_s: p.compute_mb_per_s,
        max_workers: p.max_workers,
        binary_mb: p.binary_mb,
        fetch_fanout: p.fetch_fanout,
        ..TaskDesc::synthetic(p.reduces, 0.0)
    };
    let mut tasks = BTreeMap::new();
    tasks.insert("sort_map".to_owned(), map);
    tasks.insert("sort_reduce".to_owned(), reduce);
    JobDesc {
        tasks,
        pipes: vec![
            PipeDesc {
                source: Endpoint {
                    file_pattern: Some(format!("pangu://{}", p.input_file)),
                    access_point: None,
                },
                destination: Endpoint {
                    access_point: Some("sort_map:input".into()),
                    file_pattern: None,
                },
            },
            PipeDesc {
                source: Endpoint {
                    access_point: Some("sort_map:spill".into()),
                    file_pattern: None,
                },
                destination: Endpoint {
                    access_point: Some("sort_reduce:fetch".into()),
                    file_pattern: None,
                },
            },
            PipeDesc {
                source: Endpoint {
                    access_point: Some("sort_reduce:output".into()),
                    file_pattern: None,
                },
                destination: Endpoint {
                    file_pattern: Some(p.output_file.clone()),
                    access_point: None,
                },
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_job::dag::TaskGraph;

    #[test]
    fn graysort_full_scale_matches_paper_shape() {
        let p = SortParams::graysort(1.0);
        assert!((p.total_gb - 100_000.0).abs() < 1.0);
        assert_eq!(p.maps, 200_000);
        assert_eq!(p.reduces, 5_000);
        assert!((p.per_map_input_mb() - 512.0).abs() < 1.0);
        assert!((p.per_reduce_output_mb() - 20_480.0).abs() < 1.0);
    }

    #[test]
    fn scaled_graysort_preserves_per_instance_load() {
        let p = SortParams::graysort(0.01);
        assert!((p.per_map_input_mb() - 512.0).abs() < 2.0);
        assert!((p.per_reduce_output_mb() - 20_480.0).abs() < 50.0);
    }

    #[test]
    fn job_description_is_a_valid_two_stage_dag() {
        let p = SortParams::graysort(0.01);
        let d = graysort_job(&p);
        let g = TaskGraph::build(&d).unwrap();
        let map = g.by_name("sort_map").unwrap();
        let red = g.by_name("sort_reduce").unwrap();
        assert_eq!(g.task(red).upstream, vec![map]);
        assert!(d.tasks["sort_map"].data_driven);
        assert!(d.tasks["sort_reduce"].data_driven);
        assert_eq!(g.task(map).input_files, vec!["pangu://graysort/input"]);
    }

    #[test]
    fn volumes_conserve_data() {
        let p = SortParams::graysort(0.1);
        let d = graysort_job(&p);
        let map_out = d.tasks["sort_map"].output_mb_per_instance * p.maps as f64;
        let red_out = d.tasks["sort_reduce"].output_mb_per_instance * p.reduces as f64;
        let total_mb = p.total_gb * 1024.0;
        assert!((map_out - total_mb).abs() / total_mb < 0.01);
        assert!((red_out - total_mb).abs() / total_mb < 0.01);
    }
}
