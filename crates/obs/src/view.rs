//! Cluster-wide live metrics rollup: the paper's incremental status-report
//! idiom applied to telemetry.
//!
//! FuxiAgents and JobMasters push compact [`MetricsReport`]s to the
//! primary FuxiMaster on their existing heartbeat cadences; the master
//! folds them — together with its own scheduler-derived readings — into a
//! [`ClusterView`] held in a shared [`MetricsHub`]. The hub outlives any
//! single master (it is cluster infrastructure, like the name registry),
//! so a standby taking over inherits the view and the pending-age clocks
//! keep running across a failover — exactly what lets the watchdog see the
//! stall the failover caused.
//!
//! Reports carry **cumulative** counters, not deltas: the view diffs
//! successive values per sender, so a lost or reordered report skews
//! nothing once the next one lands (the same idempotence argument the
//! paper makes for resource-state updates). Types here are raw-int /
//! `std`-only so the identical plane runs under the deterministic sim
//! kernel (sim seconds) and `fuxi-rt` (wall seconds since runtime epoch).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::export::json_string;
use crate::slo::SloAlert;
use crate::window::WindowRing;

/// Configuration of the metrics plane, threaded through the master config
/// so benchmarks can price the plane on vs off.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsPlaneConfig {
    /// Master-side switch: rollup timer, report ingestion, watchdog.
    pub enabled: bool,
    /// Pending-age SLO: breach when some job has had pending instances
    /// continuously for longer than this many seconds.
    pub pending_age_s: f64,
}

impl Default for MetricsPlaneConfig {
    fn default() -> Self {
        MetricsPlaneConfig {
            enabled: true,
            pending_age_s: 30.0,
        }
    }
}

/// One agent's status snapshot, pushed on the heartbeat cadence.
/// Counters (`worker_starts`, `worker_exits`, `launch_failures`) are
/// cumulative since agent start.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct AgentReport {
    /// Machine index of the reporting agent.
    pub machine: u32,
    /// Sender-side timestamp, seconds.
    pub t_s: f64,
    /// Machine capacity.
    pub total_cpu_milli: u64,
    /// Machine capacity.
    pub total_mem_mb: u64,
    /// Resources actually in use by workers and resident JobMasters.
    pub used_cpu_milli: u64,
    /// Resources actually in use by workers and resident JobMasters.
    pub used_mem_mb: u64,
    /// Live worker processes.
    pub workers: u32,
    /// Workers ever started (cumulative).
    pub worker_starts: u64,
    /// Workers ever exited, any reason (cumulative).
    pub worker_exits: u64,
    /// Launch failures (cumulative).
    pub launch_failures: u64,
    /// Node load reading from the health plugin.
    pub load: f64,
}

/// One job's progress snapshot, pushed by its JobMaster on the
/// housekeeping cadence. Instance counters are cumulative.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct JobReport {
    /// Owning application id.
    pub app: u32,
    /// Job id.
    pub job: u32,
    /// Sender-side timestamp, seconds.
    pub t_s: f64,
    /// Tasks in the job DAG.
    pub tasks_total: u32,
    /// Tasks fully finished.
    pub tasks_finished: u32,
    /// Instances across all tasks.
    pub instances_total: u64,
    /// Instances currently running.
    pub instances_running: u64,
    /// Instances finished (cumulative).
    pub instances_finished: u64,
    /// Worker processes currently attached.
    pub workers_active: u64,
    /// Instances waiting for a grant right now.
    pub pending_instances: u64,
}

/// The wire payload of the in-band metrics channel.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum MetricsReport {
    /// From a FuxiAgent.
    Agent(AgentReport),
    /// From a JobMaster.
    Job(JobReport),
}

/// Scheduler-derived readings the master computes itself each window and
/// folds into the view alongside the pushed reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MasterRollup {
    /// Rollup time, seconds.
    pub t_s: f64,
    /// Jobs finished per second over the retained complete windows.
    pub jobs_per_sec: f64,
    /// Jobs submitted since master start.
    pub jobs_submitted_total: u64,
    /// Jobs finished since master start.
    pub jobs_finished_total: u64,
    /// Windowed sched-decision latency quantiles, seconds.
    pub sched_p50_s: f64,
    /// Windowed sched-decision latency quantiles, seconds.
    pub sched_p95_s: f64,
    /// Windowed sched-decision latency quantiles, seconds.
    pub sched_p99_s: f64,
    /// Sched decisions inside the retained windows.
    pub sched_count_win: u64,
    /// Engine cluster capacity.
    pub total_cpu_milli: u64,
    /// Engine cluster capacity.
    pub total_mem_mb: u64,
    /// Engine planned (granted) resources.
    pub planned_cpu_milli: u64,
    /// Engine planned (granted) resources.
    pub planned_mem_mb: u64,
    /// Waiting-queue entries in the engine.
    pub waiting_entries: u64,
    /// Total free memory in the pool.
    pub free_mem_mb: u64,
    /// Free memory stranded on machines below the probe size.
    pub stranded_free_mem_mb: u64,
    /// Largest single-machine free memory.
    pub largest_free_mem_mb: u64,
    /// Master epoch (increments on failover).
    pub master_epoch: u32,
}

/// The cluster-wide rollup the scrape endpoint, watchdog, and `fuxitop`
/// read. One instance lives in the [`MetricsHub`]; the primary master
/// updates it once per window and on every inbound report.
#[derive(Debug, Clone, Default)]
pub struct ClusterView {
    /// Scheduler-derived readings from the last rollup.
    pub rollup: MasterRollup,
    /// Planned-over-capacity utilization (CPU), 0..=1.
    pub util_cpu: f64,
    /// Planned-over-capacity utilization (memory), 0..=1.
    pub util_mem: f64,
    /// Stranded fraction of free memory: free memory on machines with too
    /// little free to fit the master's probe unit, over all free memory.
    pub frag_ratio: f64,
    /// Windowed sched p99 copied from the rollup, seconds (watchdog input).
    pub sched_p99_s: f64,
    /// Sched samples inside the retained windows (watchdog input).
    pub sched_count_win: u64,
    /// Sum of pending instances over all reporting jobs.
    pub pending_instances: u64,
    /// Age of the oldest continuously-pending job, seconds.
    pub oldest_pending_age_s: f64,
    /// Instances finished per second (from job-report diffs).
    pub instances_per_sec: f64,
    /// Live runtime: total sampled mailbox backlog (0 under the sim).
    pub mailbox_depth: u64,
    /// Live runtime: mailbox high-water mark (0 under the sim).
    pub mailbox_hwm: u64,
    /// Latest report per agent, keyed by machine.
    pub agents: BTreeMap<u32, AgentReport>,
    /// Latest report per live job, keyed by job id.
    pub jobs: BTreeMap<u32, JobReport>,
    /// Currently-active alerts (raised, not yet cleared).
    pub alerts: Vec<SloAlert>,
    /// Raise transitions since cluster start.
    pub alerts_total: u64,
    /// Reports ingested since cluster start.
    pub reports_received: u64,
    /// When each job first went (and stayed) pending, for the age rule.
    pending_since: BTreeMap<u32, f64>,
    /// Windowed instances-finished deltas, for `instances_per_sec`.
    inst_ring: WindowRing,
}

impl ClusterView {
    /// Ingests one pushed report at view time `now_s`.
    pub fn apply_report(&mut self, now_s: f64, report: &MetricsReport) {
        self.reports_received += 1;
        match report {
            MetricsReport::Agent(a) => {
                self.agents.insert(a.machine, *a);
            }
            MetricsReport::Job(j) => {
                let prev = self.jobs.insert(j.job, *j);
                let prev_fin = prev.map_or(0, |p| p.instances_finished);
                if j.instances_finished > prev_fin {
                    self.inst_ring.observe(now_s, (j.instances_finished - prev_fin) as f64);
                }
                if j.pending_instances > 0 {
                    self.pending_since.entry(j.job).or_insert(now_s);
                } else {
                    self.pending_since.remove(&j.job);
                }
            }
        }
    }

    /// The master saw `job` finish: it leaves the live table and stops
    /// ageing. (Its JobMaster reports on a timer and exits without a last
    /// report, so the reports alone would leave its last reading for ever.)
    pub fn job_finished(&mut self, job: u32) {
        self.jobs.remove(&job);
        self.pending_since.remove(&job);
    }

    /// Folds the master's own per-window readings in and refreshes every
    /// derived field the watchdog reads.
    pub fn apply_rollup(&mut self, r: MasterRollup) {
        self.util_cpu = ratio(r.planned_cpu_milli, r.total_cpu_milli);
        self.util_mem = ratio(r.planned_mem_mb, r.total_mem_mb);
        self.frag_ratio = ratio(r.stranded_free_mem_mb, r.free_mem_mb);
        self.sched_p99_s = r.sched_p99_s;
        self.sched_count_win = r.sched_count_win;
        self.pending_instances = self.jobs.values().map(|j| j.pending_instances).sum();
        self.oldest_pending_age_s = self
            .pending_since
            .values()
            .map(|t| (r.t_s - t).max(0.0))
            .fold(0.0, f64::max);
        self.instances_per_sec = self.inst_ring.rate_per_sec(r.t_s);
        self.rollup = r;
    }

    /// Records alert transitions: updates the active list and totals.
    pub fn apply_alerts(&mut self, transitions: &[SloAlert]) {
        for a in transitions {
            if a.raised {
                self.alerts_total += 1;
                self.alerts.push(*a);
            } else {
                self.alerts.retain(|act| act.rule != a.rule);
            }
        }
    }

    /// Resources in actual use, summed over agent reports.
    pub fn used(&self) -> (u64, u64) {
        let cpu = self.agents.values().map(|a| a.used_cpu_milli).sum();
        let mem = self.agents.values().map(|a| a.used_mem_mb).sum();
        (cpu, mem)
    }

    /// Full JSON document: a summary object, per-agent rows, per-job rows,
    /// and active alerts. Served by the scrape endpoint at `/json`.
    pub fn to_json(&self) -> String {
        let r = &self.rollup;
        let (used_cpu, used_mem) = self.used();
        let mut s = String::with_capacity(4096);
        s.push_str("{\"summary\":{");
        push_kv(&mut s, "t_s", &fmt_f(r.t_s));
        push_kv(&mut s, "jobs_per_sec", &fmt_f(r.jobs_per_sec));
        push_kv(&mut s, "jobs_submitted_total", &r.jobs_submitted_total.to_string());
        push_kv(&mut s, "jobs_finished_total", &r.jobs_finished_total.to_string());
        push_kv(&mut s, "instances_per_sec", &fmt_f(self.instances_per_sec));
        push_kv(&mut s, "util_cpu", &fmt_f(self.util_cpu));
        push_kv(&mut s, "util_mem", &fmt_f(self.util_mem));
        push_kv(&mut s, "used_cpu_milli", &used_cpu.to_string());
        push_kv(&mut s, "used_mem_mb", &used_mem.to_string());
        push_kv(&mut s, "sched_p50_s", &fmt_f(r.sched_p50_s));
        push_kv(&mut s, "sched_p95_s", &fmt_f(r.sched_p95_s));
        push_kv(&mut s, "sched_p99_s", &fmt_f(r.sched_p99_s));
        push_kv(&mut s, "sched_count_win", &r.sched_count_win.to_string());
        push_kv(&mut s, "waiting_entries", &r.waiting_entries.to_string());
        push_kv(&mut s, "pending_instances", &self.pending_instances.to_string());
        push_kv(&mut s, "oldest_pending_age_s", &fmt_f(self.oldest_pending_age_s));
        push_kv(&mut s, "frag_ratio", &fmt_f(self.frag_ratio));
        push_kv(&mut s, "free_mem_mb", &r.free_mem_mb.to_string());
        push_kv(&mut s, "mailbox_depth", &self.mailbox_depth.to_string());
        push_kv(&mut s, "mailbox_hwm", &self.mailbox_hwm.to_string());
        push_kv(&mut s, "master_epoch", &r.master_epoch.to_string());
        push_kv(&mut s, "agents", &self.agents.len().to_string());
        push_kv(&mut s, "jobs_live", &self.jobs.len().to_string());
        push_kv(&mut s, "alerts_active", &self.alerts.len().to_string());
        push_kv(&mut s, "alerts_total", &self.alerts_total.to_string());
        push_kv(&mut s, "reports_received", &self.reports_received.to_string());
        s.pop(); // trailing comma
        s.push_str("},\"agents\":[");
        for (i, a) in self.agents.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_kv(&mut s, "machine", &a.machine.to_string());
            push_kv(&mut s, "t_s", &fmt_f(a.t_s));
            push_kv(&mut s, "used_cpu_milli", &a.used_cpu_milli.to_string());
            push_kv(&mut s, "used_mem_mb", &a.used_mem_mb.to_string());
            push_kv(&mut s, "total_cpu_milli", &a.total_cpu_milli.to_string());
            push_kv(&mut s, "total_mem_mb", &a.total_mem_mb.to_string());
            push_kv(&mut s, "workers", &a.workers.to_string());
            push_kv(&mut s, "worker_starts", &a.worker_starts.to_string());
            push_kv(&mut s, "worker_exits", &a.worker_exits.to_string());
            push_kv(&mut s, "launch_failures", &a.launch_failures.to_string());
            push_kv(&mut s, "load", &fmt_f(a.load));
            s.pop();
            s.push('}');
        }
        s.push_str("],\"jobs\":[");
        for (i, j) in self.jobs.values().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_kv(&mut s, "app", &j.app.to_string());
            push_kv(&mut s, "job", &j.job.to_string());
            push_kv(&mut s, "t_s", &fmt_f(j.t_s));
            push_kv(&mut s, "tasks_total", &j.tasks_total.to_string());
            push_kv(&mut s, "tasks_finished", &j.tasks_finished.to_string());
            push_kv(&mut s, "instances_total", &j.instances_total.to_string());
            push_kv(&mut s, "instances_running", &j.instances_running.to_string());
            push_kv(&mut s, "instances_finished", &j.instances_finished.to_string());
            push_kv(&mut s, "workers_active", &j.workers_active.to_string());
            push_kv(&mut s, "pending_instances", &j.pending_instances.to_string());
            s.pop();
            s.push('}');
        }
        s.push_str("],\"alerts\":[");
        for (i, a) in self.alerts.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            s.push_str("\"rule\":");
            s.push_str(&json_string(a.rule.name()));
            s.push(',');
            push_kv(&mut s, "value", &fmt_f(a.value));
            push_kv(&mut s, "threshold", &fmt_f(a.threshold));
            push_kv(&mut s, "t_s", &fmt_f(a.t_s));
            s.pop();
            s.push('}');
        }
        s.push_str("]}");
        s
    }

    /// Prometheus text exposition of the rollup. Served at `/metrics`.
    pub fn to_prometheus(&self) -> String {
        let r = &self.rollup;
        let (used_cpu, used_mem) = self.used();
        let mut s = String::with_capacity(4096);
        let mut g = |name: &str, help: &str, v: String| {
            s.push_str("# HELP ");
            s.push_str(name);
            s.push(' ');
            s.push_str(help);
            s.push_str("\n# TYPE ");
            s.push_str(name);
            s.push_str(" gauge\n");
            s.push_str(name);
            s.push(' ');
            s.push_str(&v);
            s.push('\n');
        };
        g("fuxi_jobs_per_sec", "Jobs finished per second (windowed)", fmt_f(r.jobs_per_sec));
        g(
            "fuxi_jobs_finished_total",
            "Jobs finished since master start",
            r.jobs_finished_total.to_string(),
        );
        g(
            "fuxi_jobs_submitted_total",
            "Jobs submitted since master start",
            r.jobs_submitted_total.to_string(),
        );
        g(
            "fuxi_instances_per_sec",
            "Instances finished per second (windowed)",
            fmt_f(self.instances_per_sec),
        );
        g("fuxi_util_cpu", "Planned CPU over capacity", fmt_f(self.util_cpu));
        g("fuxi_util_mem", "Planned memory over capacity", fmt_f(self.util_mem));
        g("fuxi_used_cpu_milli", "CPU in actual use (agent-reported)", used_cpu.to_string());
        g("fuxi_used_mem_mb", "Memory in actual use (agent-reported)", used_mem.to_string());
        g("fuxi_sched_p50_seconds", "Sched decision p50 (windowed)", fmt_f(r.sched_p50_s));
        g("fuxi_sched_p95_seconds", "Sched decision p95 (windowed)", fmt_f(r.sched_p95_s));
        g("fuxi_sched_p99_seconds", "Sched decision p99 (windowed)", fmt_f(r.sched_p99_s));
        g("fuxi_waiting_entries", "Engine waiting-queue entries", r.waiting_entries.to_string());
        g(
            "fuxi_pending_instances",
            "Pending instances over reporting jobs",
            self.pending_instances.to_string(),
        );
        g(
            "fuxi_oldest_pending_age_seconds",
            "Age of oldest continuously-pending job",
            fmt_f(self.oldest_pending_age_s),
        );
        g("fuxi_frag_ratio", "Stranded fraction of free memory", fmt_f(self.frag_ratio));
        g("fuxi_free_mem_mb", "Free memory in the pool", r.free_mem_mb.to_string());
        g("fuxi_mailbox_depth", "Sampled live mailbox backlog", self.mailbox_depth.to_string());
        g("fuxi_mailbox_hwm", "Mailbox high-water mark", self.mailbox_hwm.to_string());
        g("fuxi_master_epoch", "Master failovers observed", r.master_epoch.to_string());
        g("fuxi_agents_reporting", "Agents with a report in the view", self.agents.len().to_string());
        g("fuxi_jobs_live", "Jobs currently reporting", self.jobs.len().to_string());
        g("fuxi_alerts_total", "SLO raise transitions", self.alerts_total.to_string());
        g(
            "fuxi_reports_received_total",
            "Metrics reports ingested",
            self.reports_received.to_string(),
        );
        // Per-rule active flags and per-agent health, labelled.
        s.push_str("# HELP fuxi_alert_active Whether an SLO rule is currently breached\n");
        s.push_str("# TYPE fuxi_alert_active gauge\n");
        for rule in crate::slo::SloRuleKind::ALL {
            let active = self.alerts.iter().any(|a| a.rule == rule);
            s.push_str(&format!(
                "fuxi_alert_active{{rule=\"{}\"}} {}\n",
                rule.name(),
                u8::from(active)
            ));
        }
        s.push_str("# HELP fuxi_agent_used_mem_mb Per-agent memory in use\n");
        s.push_str("# TYPE fuxi_agent_used_mem_mb gauge\n");
        for a in self.agents.values() {
            s.push_str(&format!(
                "fuxi_agent_used_mem_mb{{machine=\"{}\"}} {}\n",
                a.machine, a.used_mem_mb
            ));
        }
        s.push_str("# HELP fuxi_agent_workers Per-agent live worker processes\n");
        s.push_str("# TYPE fuxi_agent_workers gauge\n");
        for a in self.agents.values() {
            s.push_str(&format!(
                "fuxi_agent_workers{{machine=\"{}\"}} {}\n",
                a.machine, a.workers
            ));
        }
        s
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn fmt_f(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "0.0".to_owned()
    }
}

fn push_kv(s: &mut String, key: &str, val: &str) {
    s.push_str(&json_string(key));
    s.push(':');
    s.push_str(val);
    s.push(',');
}

/// Shared handle to the cluster's [`ClusterView`]. Cheap to clone; the
/// sim harness and `LiveCluster` create one and hand it to every master
/// (primary and standby), the scrape server, and the runtime's mailbox
/// sampler — the same sharing idiom as the name registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    inner: Arc<Mutex<ClusterView>>,
}

impl MetricsHub {
    /// Runs `f` under the view lock and returns its result.
    pub fn update<R>(&self, f: impl FnOnce(&mut ClusterView) -> R) -> R {
        let mut guard = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        f(&mut guard)
    }

    /// Clones the current view out.
    pub fn snapshot(&self) -> ClusterView {
        self.update(|v| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job_report(job: u32, finished: u64, pending: u64) -> MetricsReport {
        MetricsReport::Job(JobReport {
            app: 1,
            job,
            tasks_total: 2,
            tasks_finished: 0,
            instances_total: 10,
            instances_running: 3,
            instances_finished: finished,
            workers_active: 3,
            pending_instances: pending,
            t_s: 0.0,
        })
    }

    #[test]
    fn cumulative_job_reports_diff_into_rates() {
        let mut v = ClusterView::default();
        v.apply_report(0.5, &job_report(7, 0, 4));
        v.apply_report(2.5, &job_report(7, 10, 0));
        v.apply_rollup(MasterRollup {
            t_s: 4.0,
            ..MasterRollup::default()
        });
        // 10 instances landed in window 2; span from there to the rollup
        // window is 2 s, so 5 instances/s.
        assert!((v.instances_per_sec - 5.0).abs() < 1e-9, "{}", v.instances_per_sec);
        assert_eq!(v.pending_instances, 0);
        assert_eq!(v.reports_received, 2);
    }

    #[test]
    fn pending_age_tracks_first_continuous_pending() {
        let mut v = ClusterView::default();
        v.apply_report(1.0, &job_report(3, 0, 5));
        v.apply_report(4.0, &job_report(3, 2, 5)); // still pending: clock keeps t=1
        v.apply_rollup(MasterRollup {
            t_s: 9.0,
            ..MasterRollup::default()
        });
        assert!((v.oldest_pending_age_s - 8.0).abs() < 1e-9);
        // Pending clears: age resets.
        v.apply_report(10.0, &job_report(3, 4, 0));
        v.apply_rollup(MasterRollup {
            t_s: 11.0,
            ..MasterRollup::default()
        });
        assert_eq!(v.oldest_pending_age_s, 0.0);
    }

    #[test]
    fn finished_jobs_leave_the_live_table() {
        let mut v = ClusterView::default();
        v.apply_report(0.5, &job_report(9, 0, 4));
        assert_eq!(v.jobs.len(), 1);
        // Its last report said "4 pending"; the master's word ends that.
        v.job_finished(9);
        v.apply_rollup(MasterRollup { t_s: 30.0, ..MasterRollup::default() });
        assert!(v.jobs.is_empty());
        assert_eq!((v.pending_instances, v.oldest_pending_age_s), (0, 0.0));
    }

    #[test]
    fn exposition_formats_are_well_formed() {
        let mut v = ClusterView::default();
        v.apply_report(
            0.5,
            &MetricsReport::Agent(AgentReport {
                machine: 3,
                total_cpu_milli: 24_000,
                total_mem_mb: 96 * 1024,
                used_cpu_milli: 6_000,
                used_mem_mb: 10_240,
                workers: 4,
                worker_starts: 9,
                worker_exits: 5,
                launch_failures: 1,
                load: 0.5,
                t_s: 0.5,
            }),
        );
        v.apply_report(0.6, &job_report(1, 2, 3));
        v.apply_rollup(MasterRollup {
            t_s: 1.0,
            jobs_per_sec: 1.5,
            total_cpu_milli: 24_000,
            total_mem_mb: 96 * 1024,
            planned_cpu_milli: 12_000,
            planned_mem_mb: 48 * 1024,
            ..MasterRollup::default()
        });
        let prom = v.to_prometheus();
        assert!(prom.contains("fuxi_jobs_per_sec 1.500000"));
        assert!(prom.contains("fuxi_util_cpu 0.500000"));
        assert!(prom.contains("fuxi_agent_workers{machine=\"3\"} 4"));
        let json = v.to_json();
        assert!(json.contains("\"jobs_per_sec\":1.500000"));
        assert!(json.contains("\"machine\":3"));
        assert!(json.contains("\"pending_instances\":3"));
        let hub = MetricsHub::default();
        hub.update(|view| *view = v.clone());
        assert_eq!(hub.snapshot().to_json(), json);
    }
}
