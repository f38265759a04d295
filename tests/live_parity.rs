//! Sim↔live parity: the same scenario — same config, same jobs, same
//! injected node death — run once under the deterministic kernel and once
//! under the live multi-threaded runtime (`fuxi-rt`) must converge to the
//! same terminal job outcomes. Timing differs by construction (virtual vs
//! wall clock), so the comparison is the order-insensitive set of
//! `(JobId, success)` pairs, not timestamps. Below the job level, one probe
//! actor asks both engines the same questions about placement, the process
//! table and machine death, and must get the same answers.

use fuxi::apsara::StoreHandle;
use fuxi::cluster::{Cluster, ClusterConfig, DeployTopology, SubmitOpts};
use fuxi::core::HardState;
use fuxi::job::JobDesc;
use fuxi::proto::{JobId, MachineId};
use fuxi::rt::{LiveCluster, LiveRuntime, RuntimeConfig};
use fuxi::sim::{Actor, ActorId, Ctx, KernelMsg, SimDuration, SimTime, World, WorldConfig};
use fuxi::workloads::mapreduce::{wordcount_job, MapReduceParams};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const N_MACHINES: usize = 20;
const N_JOBS: usize = 50;
const SEED: u64 = 77;
/// Jobs finished before the node death is injected.
const DEATHS_AFTER_DONE: usize = 10;
/// The machine that dies; any worker/JobMaster placed there must be
/// rescheduled elsewhere for its job to finish.
const VICTIM: MachineId = MachineId(7);

fn scenario_config() -> ClusterConfig {
    ClusterConfig {
        n_machines: N_MACHINES,
        rack_size: 5,
        seed: SEED,
        ..ClusterConfig::default()
    }
}

fn scenario_job(i: usize) -> JobDesc {
    wordcount_job(&MapReduceParams {
        maps: 4,
        reduces: 1,
        map_duration_s: 0.05,
        reduce_duration_s: 0.05,
        jitter: 0.1,
        max_workers: 2,
        binary_mb: 2.0,
        map_output_mb: 0.5,
        output_file: Some(format!("pangu://parity/out-{i}")),
        ..Default::default()
    })
}

type Outcomes = BTreeSet<(JobId, bool)>;

fn outcomes(jobs: &[(JobId, fuxi::cluster::JobState)]) -> Outcomes {
    jobs.iter()
        .filter_map(|(j, s)| s.done.as_ref().map(|&(ok, _, _)| (*j, ok)))
        .collect()
}

/// Quiescence: a job's hard-state record goes when the job stops and its
/// JobMaster's snapshot when the JobMaster does, so a cluster whose jobs
/// have all finished holds neither — on either engine.
fn assert_quiescent(store: &StoreHandle, engine: &str) {
    assert_eq!(HardState::job_keys(store), Vec::<String>::new(), "{engine}: job records left");
    assert_eq!(store.keys_with_prefix("jobsnap/"), Vec::<String>::new(), "{engine}: snapshots left");
}

fn run_sim() -> Outcomes {
    let mut c = Cluster::new(scenario_config());
    for i in 0..N_JOBS {
        c.submit(&scenario_job(i), &SubmitOpts::default());
    }
    // Let the pipeline warm up, then take a machine down mid-flight.
    let done = c.run_until_n_done(DEATHS_AFTER_DONE, SimTime::from_secs(3600));
    assert!(done >= DEATHS_AFTER_DONE, "sim warm-up stalled at {done}");
    c.world.kill_machine(VICTIM.0);
    let done = c.run_until_n_done(N_JOBS, SimTime::from_secs(7200));
    assert_eq!(done, N_JOBS, "sim run left jobs unfinished");
    assert_eq!(c.duplicate_finishes(), 0, "sim: a job completed twice");
    assert_quiescent(&c.store, "sim");
    outcomes(&c.all_jobs())
}

fn run_live() -> Outcomes {
    let mut c = LiveCluster::new(scenario_config());
    for i in 0..N_JOBS {
        c.submit(&scenario_job(i), &SubmitOpts::default());
    }
    let done = c.wait_n_done(DEATHS_AFTER_DONE, Duration::from_secs(60));
    assert!(done >= DEATHS_AFTER_DONE, "live warm-up stalled at {done}");
    c.kill_machine(VICTIM);
    let done = c.wait_n_done(N_JOBS, Duration::from_secs(120));
    let (jobs, duplicates, store) = (c.all_jobs(), c.duplicate_finishes(), c.store.clone());
    c.shutdown();
    assert_eq!(done, N_JOBS, "live run left jobs unfinished");
    assert_eq!(duplicates, 0, "live: a job completed twice");
    assert_quiescent(&store, "live");
    outcomes(&jobs)
}

/// The live half of `crates/cluster/tests/boot_placement.rs`: both engines
/// boot through `fuxi_cluster::boot`, so a `LiveCluster` must also report
/// the ids the topology computes — with and without a standby master.
#[test]
fn live_cluster_lands_actors_where_the_topology_says() {
    for standby in [false, true] {
        let cfg = ClusterConfig {
            n_machines: 6,
            rack_size: 4,
            standby_master: standby,
            ..ClusterConfig::default()
        };
        let deploy = DeployTopology::single_process(cfg.clone());
        let masters: Vec<_> = deploy.master_ids().iter().map(|p| p.id).collect();
        let agents: Vec<_> = deploy.agent_ids().iter().map(|(_, p)| p.id).collect();
        let live = LiveCluster::new(cfg);
        let got = (live.lock, live.masters.clone(), live.agents.clone(), live.client);
        live.shutdown();
        assert_eq!(got, (deploy.lock_id().id, masters, agents, deploy.client_id().id));
    }
}

#[test]
fn live_and_sim_reach_identical_job_outcomes() {
    let sim = run_sim();
    let live = run_live();
    assert_eq!(sim.len(), N_JOBS);
    assert_eq!(
        sim, live,
        "sim and live terminal outcomes diverged:\n sim: {sim:?}\nlive: {live:?}"
    );
}

#[derive(Debug)]
enum Probe {
    /// A child registered itself in its machine's process table.
    Registered,
    /// The harness took the children's machine down.
    MachineKilled,
}

impl KernelMsg for Probe {
    fn flow_done(_: u64, _: bool) -> Self {
        unreachable!("the probe starts no flow")
    }
}

/// What the probe saw, one answer per line, in the order it asked.
type Answers = Arc<Mutex<Vec<String>>>;

/// The machine the probe's children are placed on.
const CHILD_MACHINE: u32 = 1;

/// Registers itself with `meta` and tells its parent.
struct Child {
    parent: ActorId,
    meta: u8,
}

impl Actor<Probe> for Child {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Probe>) {
        ctx.register_proc(vec![self.meta]);
        ctx.send(self.parent, Probe::Registered);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Probe>, _: ActorId, _: Probe) {}
}

/// Kills itself, then arms a zero-delay timer. An actor that is no longer
/// registered drops its timers, so `on_timer` must never run.
struct Quitter {
    answers: Answers,
}

impl Actor<Probe> for Quitter {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Probe>) {
        ctx.kill_self();
        ctx.timer(SimDuration::ZERO, 0);
    }
    fn on_message(&mut self, _: &mut Ctx<'_, Probe>, _: ActorId, _: Probe) {}
    fn on_timer(&mut self, _: &mut Ctx<'_, Probe>, _: u64) {
        self.answers.lock().unwrap().push(QUITTER_FIRED.to_owned());
    }
}

const QUITTER_FIRED: &str = "a dead actor's zero-delay timer fired";

/// The script: spawn two children on one machine, read the process table
/// once both have registered, kill one, then ask about both; read the
/// table again in the next handler (a kill takes effect when the handler
/// that made it returns); and after the harness has taken the machine
/// down, ask about the machine and the survivor. A [`Quitter`] runs beside
/// the script and must add nothing to it.
struct ProbeActor {
    answers: Answers,
    children: Vec<ActorId>,
    registered: usize,
}

impl ProbeActor {
    fn say(&self, answer: String) {
        self.answers.lock().unwrap().push(answer);
    }

    /// Child ids by spawn order, so the answers do not depend on how an
    /// engine numbers its actors.
    fn name(&self, id: ActorId) -> String {
        match self.children.iter().position(|&c| c == id) {
            Some(i) => format!("child{i}"),
            None => format!("stranger {id}"),
        }
    }

    fn children(&self, ctx: &Ctx<'_, Probe>, what: &str) {
        for &c in &self.children {
            let name = self.name(c);
            self.say(format!("{what}: {name} alive {} on {:?}", ctx.alive(c), ctx.machine_of(c)));
        }
    }

    fn procs(&self, ctx: &Ctx<'_, Probe>, what: &str) {
        let procs: Vec<_> = (ctx.procs_on(CHILD_MACHINE).into_iter())
            .map(|(id, meta)| (self.name(id), meta))
            .collect();
        self.say(format!("{what}: procs {procs:?}"));
    }

    fn machine(&self, ctx: &Ctx<'_, Probe>, what: &str) {
        let m = CHILD_MACHINE;
        self.say(format!(
            "{what}: {} machines, m{m} up {} launch_ok {} speed {} rack {}",
            ctx.n_machines(),
            ctx.machine_up(m),
            ctx.launch_ok(m),
            ctx.machine_speed(m),
            ctx.rack_of(m)
        ));
    }
}

impl Actor<Probe> for ProbeActor {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Probe>) {
        self.say(format!("self placed on {:?}", ctx.self_machine()));
        self.machine(ctx, "start");
        ctx.spawn(None, Box::new(Quitter { answers: self.answers.clone() }));
        for meta in [7, 9] {
            let child = ctx.spawn(Some(CHILD_MACHINE), Box::new(Child { parent: ctx.id(), meta }));
            self.children.push(child);
        }
        self.children(ctx, "spawned");
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Probe>, _: ActorId, msg: Probe) {
        match msg {
            Probe::Registered => {
                self.registered += 1;
                if self.registered < self.children.len() {
                    return;
                }
                self.procs(ctx, "registered");
                ctx.kill(self.children[0]);
                self.children(ctx, "killed child0");
                ctx.timer(SimDuration::from_millis(20), 0);
            }
            Probe::MachineKilled => {
                self.machine(ctx, "machine killed");
                self.children(ctx, "machine killed");
                self.procs(ctx, "machine killed");
                self.say("done".to_owned());
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Probe>, _: u64) {
        self.procs(ctx, "next handler");
        self.say("ready".to_owned());
    }
}

fn probe(answers: &Answers) -> Box<ProbeActor> {
    Box::new(ProbeActor { answers: answers.clone(), children: Vec::new(), registered: 0 })
}

fn probe_world() -> WorldConfig {
    WorldConfig::uniform(3, 2, SEED)
}

fn said(answers: &Answers, last: &str) -> bool {
    answers.lock().unwrap().last().is_some_and(|a| a == last)
}

fn probe_sim() -> Vec<String> {
    let answers = Answers::default();
    let mut w: World<Probe> = World::new(probe_world());
    let p = w.spawn(None, probe(&answers));
    w.run_until(SimTime::from_secs(1));
    assert!(said(&answers, "ready"), "sim probe stalled: {:?}", answers.lock().unwrap());
    w.kill_machine(CHILD_MACHINE);
    w.send_external(p, Probe::MachineKilled);
    w.run_until(SimTime::from_secs(2));
    let out = answers.lock().unwrap().clone();
    out
}

fn probe_live() -> Vec<String> {
    let answers = Answers::default();
    let rt: LiveRuntime<Probe> = LiveRuntime::new(RuntimeConfig {
        machines: probe_world().machines,
        seed: SEED,
        ..RuntimeConfig::default()
    });
    let wait_for = |last: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !said(&answers, last) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(said(&answers, last), "live probe stalled: {:?}", answers.lock().unwrap());
    };
    let p = rt.spawn(None, probe(&answers));
    wait_for("ready");
    rt.kill_machine(CHILD_MACHINE);
    rt.send_external(p, Probe::MachineKilled);
    wait_for("done");
    rt.shutdown();
    let out = answers.lock().unwrap().clone();
    out
}

/// Both engines implement one actor contract (`CtxOps`): the same script
/// gets the same answers from each.
#[test]
fn both_engines_answer_the_contract_alike() {
    let sim = probe_sim();
    assert_eq!(sim.last().map(String::as_str), Some("done"));
    assert!(!sim.iter().any(|a| a == QUITTER_FIRED), "sim: {sim:?}");
    assert_eq!(sim, probe_live());
}
