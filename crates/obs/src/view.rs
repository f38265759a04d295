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

use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MetricsReport {
    /// From a FuxiAgent.
    Agent(AgentReport),
    /// From a JobMaster.
    Job(JobReport),
}

/// Scheduler-derived readings the master computes itself each window and
/// folds into the view alongside the pushed reports.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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
    /// Age of the oldest continuously-pending job, seconds: the older of
    /// its JobMaster-reported clock (pending instances) and, for a job an
    /// earlier master epoch accepted and no master has granted a worker
    /// yet, its master-side clock since acceptance.
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
    /// When, and in which master epoch, each job not yet granted a worker
    /// was accepted (the master's own clock: it needs no JobMaster report,
    /// so it sees a job stalled behind a failover from the first second).
    awaiting_grant: BTreeMap<u32, (f64, u32)>,
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

    /// The master of `epoch` accepted `job` at `now_s`: its pending clock
    /// starts. A resubmission to a later master keeps the first start.
    ///
    /// The clock counts towards `oldest_pending_age_s` only once the
    /// epoch has ended. Under the master that accepted it, a job with no
    /// grant is still starting its JobMaster (a package download that can
    /// take seconds and is healthy), and its JobMaster's reports cover it
    /// from then on; a job accepted by a master that has since died, and
    /// granted nothing by its successor, was held up by the failover.
    ///
    /// The clock lives in the hub, so it spans a failover only when both
    /// masters update the same hub (the sim and `LiveCluster`). A
    /// `fuxi-node` master keeps its own hub, and a new primary there has
    /// no clock for the jobs its predecessor accepted.
    pub fn job_accepted(&mut self, job: u32, now_s: f64, epoch: u32) {
        self.awaiting_grant.entry(job).or_insert((now_s, epoch));
    }

    /// The master granted `job` its first worker: the clock
    /// [`ClusterView::job_accepted`] started stops.
    pub fn job_granted(&mut self, job: u32) {
        self.awaiting_grant.remove(&job);
    }

    /// The master saw `job` finish: it leaves the live table and stops
    /// ageing. (Its JobMaster reports on a timer and exits without a last
    /// report, so the reports alone would leave its last reading for ever.)
    pub fn job_finished(&mut self, job: u32) {
        self.jobs.remove(&job);
        self.pending_since.remove(&job);
        self.awaiting_grant.remove(&job);
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
        let stalled = (self.awaiting_grant.values())
            .filter(|&&(_, epoch)| epoch != r.master_epoch)
            .map(|(t, _)| t);
        self.oldest_pending_age_s = (self.pending_since.values())
            .chain(stalled)
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

    /// The document the scrape endpoint serves at `/json`.
    pub fn doc(&self) -> ViewDoc {
        let (used_cpu_milli, used_mem_mb) = self.used();
        ViewDoc {
            summary: ViewSummary {
                rollup: self.rollup,
                instances_per_sec: self.instances_per_sec,
                util_cpu: self.util_cpu,
                util_mem: self.util_mem,
                used_cpu_milli,
                used_mem_mb,
                pending_instances: self.pending_instances,
                oldest_pending_age_s: self.oldest_pending_age_s,
                frag_ratio: self.frag_ratio,
                mailbox_depth: self.mailbox_depth,
                mailbox_hwm: self.mailbox_hwm,
                agents: self.agents.len() as u64,
                jobs_live: self.jobs.len() as u64,
                alerts_active: self.alerts.len() as u64,
                alerts_total: self.alerts_total,
                reports_received: self.reports_received,
            },
            agents: self.agents.values().copied().collect(),
            jobs: self.jobs.values().copied().collect(),
            alerts: self.alerts.clone(),
        }
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

/// The `/json` document: the scrape endpoint writes it and `fuxitop` and
/// the scraping tests read it back, all through this one type. A
/// non-finite reading is written as `null` and reads back as NaN.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ViewDoc {
    /// Cluster-wide readings.
    pub summary: ViewSummary,
    /// The latest report of every agent, by machine.
    pub agents: Vec<AgentReport>,
    /// The latest report of every live job, by job id.
    pub jobs: Vec<JobReport>,
    /// Active alerts.
    pub alerts: Vec<SloAlert>,
}

/// The `summary` object of a [`ViewDoc`]: the master's last rollup, inline,
/// and the view's readings (see [`ClusterView`] for each).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ViewSummary {
    /// The master's readings from its last rollup.
    #[serde(flatten)]
    pub rollup: MasterRollup,
    /// Instances finished per second.
    pub instances_per_sec: f64,
    /// Planned-over-capacity CPU.
    pub util_cpu: f64,
    /// Planned-over-capacity memory.
    pub util_mem: f64,
    /// CPU in use, summed over agent reports.
    pub used_cpu_milli: u64,
    /// Memory in use, summed over agent reports.
    pub used_mem_mb: u64,
    /// Pending instances over all reporting jobs.
    pub pending_instances: u64,
    /// Age of the oldest continuously-pending job, seconds.
    pub oldest_pending_age_s: f64,
    /// Stranded fraction of free memory.
    pub frag_ratio: f64,
    /// Sampled live mailbox backlog.
    pub mailbox_depth: u64,
    /// Live mailbox high-water mark.
    pub mailbox_hwm: u64,
    /// Agents with a report in the view.
    pub agents: u64,
    /// Jobs with a report in the view.
    pub jobs_live: u64,
    /// Alerts raised and not yet cleared.
    pub alerts_active: u64,
    /// Raise transitions since cluster start.
    pub alerts_total: u64,
    /// Reports ingested since cluster start.
    pub reports_received: u64,
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
    fn master_clock_runs_from_acceptance_to_first_grant_once_its_epoch_ends() {
        let mut v = ClusterView::default();
        let rollup = |t_s, master_epoch| MasterRollup { t_s, master_epoch, ..MasterRollup::default() };
        v.job_accepted(5, 2.0, 1);
        v.apply_rollup(rollup(6.0, 1));
        assert_eq!(v.oldest_pending_age_s, 0.0, "its master is still starting its JobMaster");
        v.job_accepted(5, 3.0, 2); // a resubmission: the first start stands
        v.apply_rollup(rollup(6.0, 2));
        assert!((v.oldest_pending_age_s - 4.0).abs() < 1e-9);
        v.job_granted(5);
        v.apply_rollup(rollup(7.0, 2));
        assert_eq!(v.oldest_pending_age_s, 0.0);
        v.job_accepted(6, 7.0, 1);
        v.job_finished(6);
        v.apply_rollup(rollup(20.0, 2));
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
        let doc = v.doc();
        assert_eq!(doc.summary.rollup.jobs_per_sec, 1.5);
        assert_eq!((doc.summary.agents, doc.agents[0].machine), (1, 3));
        assert_eq!((doc.summary.pending_instances, doc.jobs[0].pending_instances), (3, 3));
        let hub = MetricsHub::default();
        hub.update(|view| *view = v.clone());
        assert_eq!(hub.snapshot().doc(), doc);
    }

    fn agent(machine: u32, load: f64) -> MetricsReport {
        let used_mem_mb = 1024 * u64::from(machine);
        MetricsReport::Agent(AgentReport { machine, load, used_mem_mb, ..AgentReport::default() })
    }

    /// The `/json` document: two agents, a job and an alert, through text
    /// and back to the typed document.
    #[test]
    fn view_doc_round_trips_through_text() {
        let mut v = ClusterView::default();
        v.apply_report(0.5, &agent(3, 0.25));
        v.apply_report(0.5, &agent(7, 1.5));
        v.apply_report(0.6, &job_report(42, 2, 5));
        v.apply_rollup(MasterRollup { t_s: 9.0, master_epoch: 2, jobs_per_sec: 0.1, ..MasterRollup::default() });
        v.apply_alerts(&[SloAlert {
            rule: crate::SloRuleKind::PendingAge,
            raised: true,
            value: 8.4,
            threshold: 4.0,
            t_s: 9.0,
        }]);
        let doc = v.doc();
        let text = serde_json::to_string(&doc).unwrap();
        assert!(text.starts_with(r#"{"summary":{"t_s":9.0,"#), "{text}");
        assert!(text.contains(r#""alerts":[{"rule":"pending_age","#), "{text}");
        let back: ViewDoc = serde_json::from_str(&text).unwrap();
        assert_eq!(back, doc);
        assert_eq!((back.agents.len(), back.jobs.len(), back.alerts.len()), (2, 1, 1));
        assert_eq!(back.summary.used_mem_mb, 10 * 1024);
    }

    /// A non-finite reading is written as `null` (JSON has no NaN) and
    /// read back as NaN: the writer does not clamp, the reader tolerates.
    #[test]
    fn a_nan_reading_still_renders_a_document_that_parses() {
        let mut v = ClusterView::default();
        v.apply_report(0.5, &agent(3, f64::NAN));
        v.apply_rollup(MasterRollup { t_s: 1.0, jobs_per_sec: f64::INFINITY, ..MasterRollup::default() });
        let text = serde_json::to_string(&v.doc()).unwrap();
        assert!(text.contains(r#""load":null"#) && text.contains(r#""jobs_per_sec":null"#), "{text}");
        let back: ViewDoc = serde_json::from_str(&text).unwrap();
        assert!(back.agents[0].load.is_nan() && back.summary.rollup.jobs_per_sec.is_nan());
        assert_eq!(back.agents[0].machine, 3);
        let without_load = text.replace(r#","load":null"#, "");
        assert!(serde_json::from_str::<ViewDoc>(&without_load).is_err(), "a missing reading is no NaN");
    }
}
