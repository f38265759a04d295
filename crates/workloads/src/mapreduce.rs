//! WordCount and Terasort job builders (the paper's synthetic workload
//! applications, §5.2.1: "we use WordCount and Terasort").

use fuxi_job::desc::{Endpoint, JobDesc, PipeDesc, TaskDesc};
use std::collections::BTreeMap;

/// Parameters shared by the MapReduce-shaped builders.
#[derive(Debug, Clone)]
pub struct MapReduceParams {
    /// Map instances.
    pub maps: u32,
    /// Reduce instances.
    pub reduces: u32,
    /// Mean instance duration, seconds.
    pub map_duration_s: f64,
    /// The reduce duration s.
    pub reduce_duration_s: f64,
    /// ±fraction jitter on durations.
    pub jitter: f64,
    /// Per-instance resources: the paper's synthetic experiment uses
    /// {0.5 CPU, 2 GB}.
    pub cpu: f64,
    /// Memory per instance, MB.
    pub memory_mb: u64,
    /// Map output feeding the shuffle, MB per map instance.
    pub map_output_mb: f64,
    /// Input file pattern (empty = purely synthetic durations).
    pub input_pattern: Option<String>,
    /// DFS path the final output is written to.
    pub output_file: Option<String>,
    /// Model I/O through the flow simulator.
    pub data_driven: bool,
    /// Worker containers per task (0 = one per instance).
    pub max_workers: u32,
    /// Worker binary size, MB (Table 2: ~400 MB).
    pub binary_mb: f64,
}

impl Default for MapReduceParams {
    fn default() -> Self {
        Self {
            maps: 100,
            reduces: 10,
            map_duration_s: 60.0,
            reduce_duration_s: 60.0,
            jitter: 0.2,
            cpu: 0.5,
            memory_mb: 2048,
            map_output_mb: 8.0,
            input_pattern: None,
            output_file: None,
            data_driven: false,
            max_workers: 0,
            binary_mb: 400.0,
        }
    }
}

fn two_stage(p: &MapReduceParams, map_name: &str, reduce_name: &str) -> JobDesc {
    let map = TaskDesc {
        executable: format!("bin/{map_name}"),
        instances: p.maps,
        cpu: p.cpu,
        memory_mb: p.memory_mb,
        duration_s: p.map_duration_s,
        duration_jitter: p.jitter,
        output_mb_per_instance: p.map_output_mb,
        data_driven: p.data_driven,
        max_workers: p.max_workers,
        binary_mb: p.binary_mb,
        ..TaskDesc::synthetic(p.maps, p.map_duration_s)
    };
    let reduce = TaskDesc {
        executable: format!("bin/{reduce_name}"),
        instances: p.reduces,
        cpu: p.cpu,
        memory_mb: p.memory_mb,
        duration_s: p.reduce_duration_s,
        duration_jitter: p.jitter,
        output_mb_per_instance: p.map_output_mb * p.maps as f64 / p.reduces.max(1) as f64,
        data_driven: p.data_driven,
        max_workers: p.max_workers,
        binary_mb: p.binary_mb,
        ..TaskDesc::synthetic(p.reduces, p.reduce_duration_s)
    };
    let mut tasks = BTreeMap::new();
    tasks.insert(map_name.to_owned(), map);
    tasks.insert(reduce_name.to_owned(), reduce);
    let mut pipes = vec![PipeDesc {
        source: Endpoint {
            access_point: Some(format!("{map_name}:shuffle")),
            file_pattern: None,
        },
        destination: Endpoint {
            access_point: Some(format!("{reduce_name}:shuffle")),
            file_pattern: None,
        },
    }];
    if let Some(input) = &p.input_pattern {
        pipes.insert(
            0,
            PipeDesc {
                source: Endpoint {
                    file_pattern: Some(input.clone()),
                    access_point: None,
                },
                destination: Endpoint {
                    access_point: Some(format!("{map_name}:input")),
                    file_pattern: None,
                },
            },
        );
    }
    if let Some(output) = &p.output_file {
        pipes.push(PipeDesc {
            source: Endpoint {
                access_point: Some(format!("{reduce_name}:output")),
                file_pattern: None,
            },
            destination: Endpoint {
                file_pattern: Some(output.clone()),
                access_point: None,
            },
        });
    }
    JobDesc { tasks, pipes }
}

/// A WordCount job: map (tokenize+count) → reduce (sum).
pub fn wordcount_job(p: &MapReduceParams) -> JobDesc {
    two_stage(p, "wc_map", "wc_reduce")
}

/// A null job: `maps` maps and one reduce that do no work, move no bytes and
/// need no package, on at most two workers. All the time it spends in the
/// system is the control plane's (what the benchmark's `live_null` streams).
pub fn null_job(maps: u32) -> JobDesc {
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

/// A Terasort job: map (sample+partition) → reduce (merge-sort+write).
pub fn terasort_job(p: &MapReduceParams) -> JobDesc {
    two_stage(p, "ts_map", "ts_reduce")
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuxi_job::dag::TaskGraph;

    #[test]
    fn wordcount_builds_valid_two_stage_dag() {
        let d = wordcount_job(&MapReduceParams::default());
        let g = TaskGraph::build(&d).unwrap();
        assert_eq!(g.len(), 2);
        let map = g.by_name("wc_map").unwrap();
        let red = g.by_name("wc_reduce").unwrap();
        assert_eq!(g.task(red).upstream, vec![map]);
    }

    #[test]
    fn input_output_pipes_attach() {
        let p = MapReduceParams {
            input_pattern: Some("pangu://logs/*".into()),
            output_file: Some("pangu://wc-out".into()),
            ..Default::default()
        };
        let d = terasort_job(&p);
        let g = TaskGraph::build(&d).unwrap();
        let map = g.by_name("ts_map").unwrap();
        let red = g.by_name("ts_reduce").unwrap();
        assert_eq!(g.task(map).input_files, vec!["pangu://logs/*"]);
        assert_eq!(g.task(red).output_files, vec!["pangu://wc-out"]);
    }

    #[test]
    fn json_round_trip_stays_valid() {
        let d = wordcount_job(&MapReduceParams::default());
        let d2 = JobDesc::parse(&d.to_json()).unwrap();
        assert_eq!(d, d2);
    }

    #[test]
    fn reduce_output_scales_with_shuffle_volume() {
        let p = MapReduceParams {
            maps: 100,
            reduces: 10,
            map_output_mb: 5.0,
            ..Default::default()
        };
        let d = wordcount_job(&p);
        assert!((d.tasks["wc_reduce"].output_mb_per_instance - 50.0).abs() < 1e-9);
    }
}
