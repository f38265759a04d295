//! The fixed frame mix behind `proto.wire.*`: what one `dist_null` job puts
//! on the wire, so the codec microbench stays representative of the
//! workload it is meant to predict.
//!
//! Weights are frames **encoded** per job, in tenths, taken from
//! `fuxi-benchmark --wire-census` (185 null jobs, 64 in flight, four
//! processes, `PROTO_VERSION` 1; the census is `node.hub.frames_per_job`
//! broken down by frame type). Frames under 0.1 per job (lock traffic,
//! hello, name updates, the one-off agent allocation reports) are left out.
//!
//! | frame                              | per job | census mean payload |
//! |------------------------------------|--------:|--------------------:|
//! | `StorePut` master hard-state       |     2.0 | ~375 KB (max 732 KB) |
//! | `StorePut` JobMaster snapshot      |     2.0 | ~5 KB               |
//! | `Msg::AmAttach`                    |     3.0 | 177 B               |
//! | `Msg::ReturnGrant`                 |     2.7 | 140 B               |
//! | `Msg::GrantUpdate`                 |     2.0 | 181 B               |
//! | `Msg::RequestUpdate`               |     2.0 | 228 B               |
//! | `Msg::JobFinished`                 |     2.0 | 138 B               |
//! | `Msg::SubmitJob` (JSON payload)    |     1.2 | 1280 B              |
//! | `Msg::CapacityNotify`              |     1.2 | 394 B               |
//! | `Msg::StartAppMaster` (JSON)       |     1.0 | 1282 B              |
//! | `Msg::AppMasterStarted`            |     1.0 | 128 B               |
//! | `Msg::FullGrantSync`               |     1.0 | 88 B                |
//! | `Msg::FullRequestSync`             |     1.0 | 131 B               |
//! | `Msg::JobAccepted`                 |     1.0 | 101 B               |
//! | `Msg::AmDetach`                    |     1.0 | 82 B                |
//! | `Msg::AppMasterExited`             |     0.7 | 109 B               |
//! | `Msg::AgentHeartbeat`              |     0.5 | 238 B               |
//! | `Msg::MetricsReport`               |     0.5 | 356 B               |
//!
//! The two `StorePut` rows carry almost every byte: the master checkpoints
//! its *whole* hard state (every live job's JSON description) at each job
//! submit and stop, and the value codec spends 9 wire bytes per byte of
//! `Vec<u8>`. At 64 jobs in flight a checkpoint averages ~40 KB raw.

use crate::jobs::{JobGen, JobKind};
use fuxi_obs::{AgentReport, MetricsReport};
use fuxi_proto::msg::AppDescription;
use fuxi_proto::request::{
    CapacityChange, GrantDelta, RequestDelta, RequestState, ScheduleUnitDef,
};
use fuxi_proto::wire::{self, RoutedMsg, StoreUpdate};
use fuxi_proto::{
    AppId, FrameType, JobId, MachineId, Msg, NodeHealthReport, Priority, ResourceVec, UnitId,
    WireError, PROTO_VERSION,
};
use fuxi_sim::ActorId;

/// One frame of the mix.
#[derive(Debug, Clone)]
pub enum MixFrame {
    Msg(RoutedMsg),
    Store(StoreUpdate),
}

impl MixFrame {
    /// Payload + frame, exactly as a transport sends it.
    pub fn encode(&self) -> Result<Vec<u8>, WireError> {
        let (ft, payload) = match self {
            MixFrame::Msg(m) => (FrameType::Msg, wire::encode_payload(PROTO_VERSION, m)?),
            MixFrame::Store(s) => (FrameType::StorePut, wire::encode_payload(PROTO_VERSION, s)?),
        };
        Ok(wire::encode_frame(PROTO_VERSION, ft as u16, &payload))
    }

    /// Header parse + payload decode, exactly as a receiver does it.
    pub fn decode(frame: &[u8]) -> Result<MixFrame, WireError> {
        let Some((hdr, payload)) = frame.split_first_chunk::<{ wire::HEADER_LEN }>() else {
            return Err(WireError::Malformed("frame shorter than a header".into()));
        };
        let h = wire::parse_header(hdr)?;
        if h.len as usize != payload.len() {
            return Err(WireError::Malformed(
                "length prefix disagrees with the frame".into(),
            ));
        }
        match FrameType::from_u16(h.frame_type) {
            Some(FrameType::Msg) => Ok(MixFrame::Msg(wire::decode_payload(h.version, payload)?)),
            Some(FrameType::StorePut) => {
                Ok(MixFrame::Store(wire::decode_payload(h.version, payload)?))
            }
            other => Err(WireError::Malformed(format!(
                "unexpected frame type {other:?}"
            ))),
        }
    }
}

/// `(weight in tenths of a frame per job, frame)`, as documented above.
pub fn mix() -> Vec<(u32, MixFrame)> {
    let (app, job, unit, machine) = (AppId(417), JobId(416), UnitId(1), MachineId(23));
    let unit_res = ResourceVec::new(500, 2048);
    let def = ScheduleUnitDef::new(unit, Priority::DEFAULT, unit_res.clone());
    // Actors in three different node windows, like the real deployment.
    let (client, master, agent, jm) = (
        ActorId(1),
        ActorId(ActorId::node_base(1)),
        ActorId(ActorId::node_base(3) + 23),
        ActorId(ActorId::node_base(3) + 900),
    );
    let desc = AppDescription {
        master_package_mb: 0.0,
        payload: JobGen::new(2014, JobKind::Null).next_job().to_json(),
        ..AppDescription::default()
    };
    let msg = |from: ActorId, to: ActorId, msg: Msg| MixFrame::Msg(RoutedMsg { from, to, msg });
    let store = |key: &str, len: usize| {
        MixFrame::Store(StoreUpdate {
            key: key.to_owned(),
            // JSON-like bytes; the codec treats every byte alike.
            value: Some((0..len).map(|i| b' ' + (i % 90) as u8).collect()),
        })
    };
    vec![
        (20, store("fuxi/master/hard_state", 40_000)),
        (20, store("fuxi/job/416/snapshot", 500)),
        (
            30,
            msg(
                jm,
                master,
                Msg::AmAttach {
                    app,
                    units: vec![def.clone()],
                },
            ),
        ),
        (
            27,
            msg(
                jm,
                master,
                Msg::ReturnGrant {
                    app,
                    unit,
                    machine,
                    count: 1,
                },
            ),
        ),
        (
            20,
            msg(
                master,
                jm,
                Msg::GrantUpdate {
                    seq: 7,
                    grants: vec![GrantDelta {
                        unit,
                        changes: vec![(machine, 1), (MachineId(24), 1)],
                    }],
                },
            ),
        ),
        (
            20,
            msg(
                jm,
                master,
                Msg::RequestUpdate {
                    app,
                    seq: 7,
                    deltas: vec![RequestDelta::cluster(unit, 2)],
                },
            ),
        ),
        (
            20,
            msg(
                master,
                client,
                Msg::JobFinished {
                    job,
                    app,
                    success: true,
                    message: "all tasks finished".into(),
                },
            ),
        ),
        (
            12,
            msg(
                client,
                master,
                Msg::SubmitJob {
                    job,
                    desc: desc.clone(),
                    client,
                },
            ),
        ),
        (
            12,
            msg(
                master,
                agent,
                Msg::CapacityNotify {
                    changes: vec![
                        CapacityChange {
                            app,
                            unit,
                            unit_resource: unit_res.clone(),
                            delta: 1,
                        },
                        CapacityChange {
                            app: AppId(418),
                            unit,
                            unit_resource: unit_res.clone(),
                            delta: -1,
                        },
                    ],
                },
            ),
        ),
        (
            10,
            msg(master, agent, Msg::StartAppMaster { app, job, desc }),
        ),
        (
            10,
            msg(
                agent,
                master,
                Msg::AppMasterStarted {
                    app,
                    actor: jm,
                    machine,
                },
            ),
        ),
        (
            10,
            msg(
                master,
                jm,
                Msg::FullGrantSync {
                    snapshot: vec![(unit, vec![(machine, 1)])],
                },
            ),
        ),
        (
            10,
            msg(
                jm,
                master,
                Msg::FullRequestSync {
                    app,
                    units: vec![def.clone()],
                    states: vec![RequestState::new(def)],
                    held: vec![(unit, vec![(machine, 1)])],
                },
            ),
        ),
        (10, msg(master, client, Msg::JobAccepted { job, app })),
        (10, msg(jm, master, Msg::AmDetach { app })),
        (7, msg(agent, master, Msg::AppMasterExited { app, machine })),
        (
            5,
            msg(
                agent,
                master,
                Msg::AgentHeartbeat {
                    machine,
                    health: NodeHealthReport::default(),
                },
            ),
        ),
        (
            5,
            msg(
                agent,
                master,
                Msg::MetricsReport {
                    report: MetricsReport::Agent(AgentReport {
                        machine: machine.0,
                        t_s: 12.5,
                        total_cpu_milli: 12_000,
                        total_mem_mb: 98_304,
                        used_cpu_milli: 1_200,
                        used_mem_mb: 4_096,
                        workers: 2,
                        worker_starts: 310,
                        worker_exits: 308,
                        launch_failures: 0,
                        load: 0.1,
                    }),
                },
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_frame_of_the_mix_round_trips() {
        let mix = mix();
        assert_eq!(
            mix.iter().map(|(w, _)| w).sum::<u32>(),
            258,
            "weights as documented"
        );
        for (_, frame) in &mix {
            let bytes = frame.encode().expect("encodes");
            let back = MixFrame::decode(&bytes).expect("decodes");
            // `Msg` has no `PartialEq`; its `Debug` form shows every field.
            assert_eq!(format!("{back:?}"), format!("{frame:?}"));
        }
    }

    #[test]
    fn payload_sizes_match_the_census() {
        let size = |want: &str| {
            let (_, f) = mix()
                .into_iter()
                .find(|(_, f)| format!("{f:?}").contains(want))
                .unwrap_or_else(|| panic!("{want} in mix"));
            f.encode().unwrap().len() - wire::HEADER_LEN
        };
        // Within a quarter of what the census saw on the real wire.
        for (variant, census) in [
            ("AmAttach", 177.0),
            ("ReturnGrant", 140.0),
            ("GrantUpdate", 181.0),
            ("RequestUpdate", 228.0),
            ("SubmitJob", 1280.0),
            ("AgentHeartbeat", 238.0),
            ("MetricsReport", 356.0),
            ("hard_state", 375_000.0),
        ] {
            let got = size(variant) as f64;
            assert!(
                (got / census - 1.0).abs() < 0.25,
                "{variant}: {got} B vs census {census} B"
            );
        }
    }

    #[test]
    fn decode_rejects_damaged_frames() {
        let (_, frame) = mix().remove(2);
        let bytes = frame.encode().unwrap();
        assert!(MixFrame::decode(&bytes[..5]).is_err());
        assert!(MixFrame::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(MixFrame::decode(&bad_magic).is_err());
    }
}
