//! Versioned binary wire encoding for [`Msg`] and the deployment control
//! frames — the single entry point every transport uses.
//!
//! Two layers:
//!
//! 1. **Value codec** — a compact, exact binary form of the serde value
//!    tree (`u64` round-trips bit-exactly, `f64` via `to_bits`). Every
//!    serializable protocol type rides this; there is deliberately no
//!    second (JSON) path on the wire, so all peers agree byte-for-byte.
//! 2. **Frame header** — `magic "FUXI" | u16 proto version | u16 frame
//!    type | u32 payload length`, on *every* frame. The version is
//!    negotiated once in the HELLO exchange; the per-frame echo makes a
//!    mid-stream desync detectable instead of silently misparsed.
//!
//! Unknown frame types are *skippable*: the header gives the exact payload
//! length, so an old peer steps over a frame kind it does not understand
//! (forward compatibility). A version the decoder does not speak is a
//! typed [`WireError::VersionMismatch`], never a decode panic.

use crate::msg::Msg;
use fuxi_sim::ActorId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::fmt;

/// Protocol version spoken by this build. Bump on any change to the
/// encoded shape of [`Msg`] or the control frames.
pub const PROTO_VERSION: u16 = 4;

/// Frame magic: every frame starts with these four bytes.
pub const MAGIC: [u8; 4] = *b"FUXI";

/// Frame header length: magic (4) + version (2) + frame type (2) + payload
/// length (4).
pub const HEADER_LEN: usize = 12;

/// Maximum accepted payload size (guards against a corrupt length prefix).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// Maximum nesting depth the value decoder accepts (a corrupt or hostile
/// frame must not overflow the stack).
const MAX_DEPTH: u32 = 64;

/// What a frame carries. The `u16` on the wire leaves room for future
/// kinds; receivers skip values they do not recognise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum FrameType {
    /// Connection opener: [`Hello`] payload, version negotiation.
    Hello = 1,
    /// Handshake accepted: [`HelloAck`] payload.
    HelloAck = 2,
    /// Handshake refused: raw UTF-8 reason payload, then close.
    HelloReject = 3,
    /// A routed actor message: [`RoutedMsg`] payload.
    Msg = 4,
    /// Name-service replication: [`NameUpdate`] payload.
    NameUpdate = 5,
    /// Checkpoint-store replication: [`StoreUpdate`] payload.
    StorePut = 6,
    /// Orderly shutdown notice; empty payload.
    Bye = 7,
}

impl FrameType {
    /// Decodes the wire value; `None` for frame kinds this build does not
    /// know (the caller skips the payload).
    pub fn from_u16(v: u16) -> Option<FrameType> {
        match v {
            1 => Some(FrameType::Hello),
            2 => Some(FrameType::HelloAck),
            3 => Some(FrameType::HelloReject),
            4 => Some(FrameType::Msg),
            5 => Some(FrameType::NameUpdate),
            6 => Some(FrameType::StorePut),
            7 => Some(FrameType::Bye),
            _ => None,
        }
    }
}

/// Typed transport/codec error. Connection supervision keys off
/// [`WireError::ConnectionLost`]; version negotiation off
/// [`WireError::VersionMismatch`] / [`WireError::Rejected`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Peer speaks a protocol version this build does not.
    VersionMismatch {
        /// Version this build speaks.
        ours: u16,
        /// Version the peer offered.
        theirs: u16,
    },
    /// Frame did not start with [`MAGIC`] — not a Fuxi peer, or stream
    /// desync.
    BadMagic([u8; 4]),
    /// Declared payload length exceeds [`MAX_FRAME`].
    FrameTooLarge(u32),
    /// The stream died (EOF mid-frame, reset, I/O error). Triggers
    /// reconnect supervision.
    ConnectionLost(String),
    /// Payload bytes did not decode as the declared frame type.
    Malformed(String),
    /// The peer refused our HELLO (carries its version and reason).
    Rejected {
        /// Version the rejecting peer speaks.
        peer_version: u16,
        /// Human-readable refusal reason.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::VersionMismatch { ours, theirs } => {
                write!(f, "protocol version mismatch: ours v{ours}, peer v{theirs}")
            }
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::FrameTooLarge(n) => write!(f, "frame of {n} bytes exceeds MAX_FRAME"),
            WireError::ConnectionLost(why) => write!(f, "connection lost: {why}"),
            WireError::Malformed(why) => write!(f, "malformed frame: {why}"),
            WireError::Rejected { peer_version, reason } => {
                write!(f, "handshake rejected by peer (v{peer_version}): {reason}")
            }
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Control-frame payloads
// ---------------------------------------------------------------------

/// HELLO payload: who is connecting and which actor-id window it owns.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    /// Human-readable node name (diagnostics only).
    pub node: String,
    /// Index of this node in the deployment topology.
    pub node_index: u32,
    /// First actor id owned by this node (`node_index << ACTOR_BASE_SHIFT`).
    pub actor_base: u32,
    /// Monotonic per-node connection counter: bumped on every reconnect so
    /// the hub can tell a fresh session from a stale one.
    pub session_epoch: u64,
}

/// HELLO-ACK payload: the hub's identity plus current replicated state so
/// a (re)connecting node starts from a fresh name/store view.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloAck {
    /// Hub's node name.
    pub node: String,
    /// Full name-service snapshot at accept time.
    pub names: Vec<(String, ActorId)>,
    /// Full checkpoint-store snapshot at accept time.
    pub store: Vec<(String, Vec<u8>)>,
}

// Note: the HELLO-REJECT payload is deliberately *raw UTF-8* (the refusal
// reason), not a value-encoded struct — a peer being rejected for speaking
// the wrong version must still be able to read why.

/// One routed actor message crossing a process boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutedMsg {
    /// Sending actor.
    pub from: ActorId,
    /// Destination actor (resolved against the receiving node's base, or
    /// relayed onward by the hub).
    pub to: ActorId,
    /// The message.
    pub msg: Msg,
}

/// Name-service replication: a registration (`id = Some`) or removal.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NameUpdate {
    /// Service name.
    pub name: String,
    /// New owner, or `None` on deregistration.
    pub id: Option<ActorId>,
}

/// Checkpoint-store replication: a put (`value = Some`) or delete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StoreUpdate {
    /// Store key.
    pub key: String,
    /// New value, or `None` on delete.
    pub value: Option<Vec<u8>>,
}

// ---------------------------------------------------------------------
// Value codec
// ---------------------------------------------------------------------

const T_NULL: u8 = 0;
const T_FALSE: u8 = 1;
const T_TRUE: u8 = 2;
const T_UINT: u8 = 3;
const T_INT: u8 = 4;
const T_FLOAT: u8 = 5;
const T_STR: u8 = 6;
const T_ARRAY: u8 = 7;
const T_OBJECT: u8 = 8;

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(T_NULL),
        Value::Bool(false) => out.push(T_FALSE),
        Value::Bool(true) => out.push(T_TRUE),
        Value::UInt(n) => {
            out.push(T_UINT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Int(n) => {
            out.push(T_INT);
            out.extend_from_slice(&n.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(T_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(T_STR);
            encode_bytes(s.as_bytes(), out);
        }
        Value::Array(items) => {
            out.push(T_ARRAY);
            out.extend_from_slice(&(items.len() as u32).to_le_bytes());
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(fields) => {
            out.push(T_OBJECT);
            out.extend_from_slice(&(fields.len() as u32).to_le_bytes());
            for (k, val) in fields {
                encode_bytes(k.as_bytes(), out);
                encode_value(val, out);
            }
        }
    }
}

fn encode_bytes(b: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(&(b.len() as u32).to_le_bytes());
    out.extend_from_slice(b);
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed(format!(
                "truncated value: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, WireError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::Malformed("non-utf8 string".into()))
    }
}

fn decode_value(r: &mut Reader<'_>, depth: u32) -> Result<Value, WireError> {
    if depth > MAX_DEPTH {
        return Err(WireError::Malformed("value nesting too deep".into()));
    }
    match r.u8()? {
        T_NULL => Ok(Value::Null),
        T_FALSE => Ok(Value::Bool(false)),
        T_TRUE => Ok(Value::Bool(true)),
        T_UINT => Ok(Value::UInt(r.u64()?)),
        T_INT => Ok(Value::Int(r.u64()? as i64)),
        T_FLOAT => Ok(Value::Float(f64::from_bits(r.u64()?))),
        T_STR => Ok(Value::Str(r.str()?)),
        T_ARRAY => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                items.push(decode_value(r, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        T_OBJECT => {
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let k = r.str()?;
                fields.push((k, decode_value(r, depth + 1)?));
            }
            Ok(Value::Object(fields))
        }
        t => Err(WireError::Malformed(format!("unknown value tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// Single encode/decode entry points
// ---------------------------------------------------------------------

/// Serializes any protocol payload under an explicit version. For
/// `version` other than [`PROTO_VERSION`] this build cannot produce
/// frames and returns [`WireError::VersionMismatch`] — a caller that
/// negotiated down must refuse the connection instead of guessing.
pub fn encode_payload<T: Serialize>(version: u16, payload: &T) -> Result<Vec<u8>, WireError> {
    if version != PROTO_VERSION {
        return Err(WireError::VersionMismatch { ours: PROTO_VERSION, theirs: version });
    }
    let mut out = Vec::with_capacity(64);
    encode_value(&payload.to_value(), &mut out);
    Ok(out)
}

/// Deserializes a payload previously produced by [`encode_payload`] at the
/// same version.
pub fn decode_payload<T: Deserialize>(version: u16, bytes: &[u8]) -> Result<T, WireError> {
    if version != PROTO_VERSION {
        return Err(WireError::VersionMismatch { ours: PROTO_VERSION, theirs: version });
    }
    let mut r = Reader { buf: bytes, pos: 0 };
    let value = decode_value(&mut r, 0)?;
    if r.pos != bytes.len() {
        return Err(WireError::Malformed(format!(
            "{} trailing bytes after value",
            bytes.len() - r.pos
        )));
    }
    T::from_value(&value).map_err(|DeError(why)| WireError::Malformed(why))
}

// ---------------------------------------------------------------------
// Frame header
// ---------------------------------------------------------------------

/// Renders a complete frame: header + payload bytes.
pub fn encode_frame(version: u16, frame_type: u16, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&frame_type.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parsed frame header: `(version, frame type, payload length)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version stamped on the frame.
    pub version: u16,
    /// Raw frame-type value (may be unknown to this build).
    pub frame_type: u16,
    /// Payload length in bytes.
    pub len: u32,
}

/// Parses and validates the 12-byte frame header.
pub fn parse_header(buf: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
    if buf[0..4] != MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1], buf[2], buf[3]]));
    }
    let version = u16::from_le_bytes([buf[4], buf[5]]);
    let frame_type = u16::from_le_bytes([buf[6], buf[7]]);
    let len = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    if len > MAX_FRAME {
        return Err(WireError::FrameTooLarge(len));
    }
    Ok(FrameHeader { version, frame_type, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::NodeHealthReport;
    use crate::ids::{AppId, InstanceId, JobId, MachineId, Priority, TaskId, UnitId, WorkerId};
    use crate::msg::{
        AppDescription, FailReason, InstanceOutcome, InstanceWork, StartFailure, WorkerSpec,
    };
    use crate::request::{
        CapacityChange, GrantDelta, RequestDelta, RequestState, ScheduleUnitDef, WantLevels,
    };
    use crate::resource::ResourceVec;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn roundtrip(msg: &Msg) -> Msg {
        let bytes = encode_payload(PROTO_VERSION, msg).unwrap();
        decode_payload::<Msg>(PROTO_VERSION, &bytes).unwrap()
    }

    fn rid(rng: &mut SmallRng) -> ActorId {
        ActorId(rng.gen_range(0..1u32 << 26))
    }

    fn rres(rng: &mut SmallRng) -> ResourceVec {
        ResourceVec::cores_mb(rng.gen_range(1..64u64), rng.gen_range(128..65536u64))
    }

    fn rdesc(rng: &mut SmallRng) -> AppDescription {
        AppDescription {
            app_type: "fuxi_job".into(),
            priority: Priority(rng.gen_range(0..1000u16)),
            payload: format!("payload-{}", rng.gen_range(0..1000u32)),
            master_package_mb: rng.gen_range(0.0..400.0f64),
            ..AppDescription::default()
        }
    }

    fn rwork(rng: &mut SmallRng) -> InstanceWork {
        InstanceWork {
            compute_s: rng.gen_range(0.0..100.0),
            reads: vec![(MachineId(rng.gen_range(0..500u32)), rng.gen_range(0.0..64.0))],
            write_mb: rng.gen_range(0.0..64.0),
            use_flows: rng.gen_range(0..2u32) == 1,
            fetch_fanout: rng.gen_range(1..8u32),
        }
    }

    fn rinst(rng: &mut SmallRng) -> InstanceId {
        InstanceId { task: TaskId(rng.gen_range(0..100u32)), index: rng.gen_range(0..100_000u32) }
    }

    fn runit(rng: &mut SmallRng) -> ScheduleUnitDef {
        ScheduleUnitDef {
            unit: UnitId(rng.gen_range(0..64u32)),
            resource: rres(rng),
            priority: Priority(rng.gen_range(0..1000u16)),
        }
    }

    fn rstate(rng: &mut SmallRng) -> RequestState {
        RequestState {
            def: runit(rng),
            wants: WantLevels::anywhere(rng.gen_range(0..64u64)),
            avoid: Default::default(),
        }
    }

    /// Index of each variant; the exhaustive match makes *adding a `Msg`
    /// variant without extending [`sample`] a compile error*, which is the
    /// whole point of this test module.
    fn variant_index(m: &Msg) -> usize {
        match m {
            Msg::SubmitJob { .. } => 0,
            Msg::JobAccepted { .. } => 1,
            Msg::StopJob { .. } => 2,
            Msg::JobFinished { .. } => 3,
            Msg::AgentHeartbeat { .. } => 4,
            Msg::StartAppMaster { .. } => 5,
            Msg::AppMasterStarted { .. } => 6,
            Msg::AppMasterStartFailed { .. } => 7,
            Msg::CapacityNotify { .. } => 8,
            Msg::MetricsReport { .. } => 9,
            Msg::AgentAllocationReport { .. } => 10,
            Msg::AgentCapacitySnapshot { .. } => 11,
            Msg::AppMasterExited { .. } => 12,
            Msg::WorkerExited { .. } => 13,
            Msg::AmAttach { .. } => 14,
            Msg::RequestUpdate { .. } => 15,
            Msg::ReturnGrant { .. } => 16,
            Msg::FullRequestSync { .. } => 17,
            Msg::GrantUpdate { .. } => 18,
            Msg::FullGrantSync { .. } => 19,
            Msg::RequestSyncNeeded { .. } => 20,
            Msg::GrantSyncNeeded { .. } => 21,
            Msg::AmDetach { .. } => 22,
            Msg::BadMachineReport { .. } => 23,
            Msg::StartWorker { .. } => 24,
            Msg::WorkerStartFailed { .. } => 25,
            Msg::StopWorker { .. } => 26,
            Msg::CapacityWarning { .. } => 27,
            Msg::WorkerListQuery { .. } => 28,
            Msg::WorkerListReply { .. } => 29,
            Msg::WorkerRegister { .. } => 30,
            Msg::AssignInstance { .. } => 31,
            Msg::InstanceReport { .. } => 32,
            Msg::InstanceFinished { .. } => 33,
            Msg::KillInstance { .. } => 34,
            Msg::WorkerExit => 35,
            Msg::WorkerStatusQuery => 36,
            Msg::WorkerStatusReply { .. } => 37,
            Msg::LockAcquire { .. } => 38,
            Msg::LockGranted { .. } => 39,
            Msg::LockKeepalive { .. } => 40,
            Msg::LockRelease { .. } => 41,
            Msg::LockLost { .. } => 42,
            Msg::FlowDone { .. } => 43,
        }
    }

    /// One randomized sample of the variant at `ix` (0..N_SAMPLES).
    fn sample(ix: usize, rng: &mut SmallRng) -> Msg {
        let app = AppId(rng.gen_range(0..1000u32));
        let job = JobId(rng.gen_range(0..1000u32));
        let unit = UnitId(rng.gen_range(0..64u32));
        let machine = MachineId(rng.gen_range(0..500u32));
        let worker = WorkerId(rng.gen_range(0..10_000u64));
        match ix {
            0 => Msg::SubmitJob { job, desc: rdesc(rng), client: rid(rng) },
            1 => Msg::JobAccepted { job, app },
            2 => Msg::StopJob { job },
            3 => Msg::JobFinished {
                job,
                app,
                success: rng.gen_range(0..2u32) == 1,
                message: "done".into(),
            },
            4 => Msg::AgentHeartbeat { machine, health: NodeHealthReport::default() },
            5 => Msg::StartAppMaster { app, job, desc: rdesc(rng) },
            6 => Msg::AppMasterStarted { app, actor: rid(rng), machine },
            7 => Msg::AppMasterStartFailed { app, reason: "disk".into() },
            8 => Msg::CapacityNotify {
                changes: vec![CapacityChange {
                    app,
                    unit,
                    unit_resource: rres(rng),
                    delta: rng.gen_range(-4..4i64),
                }],
            },
            9 => Msg::MetricsReport {
                report: if rng.gen_range(0..2u32) == 1 {
                    fuxi_obs::MetricsReport::Agent(fuxi_obs::AgentReport {
                        machine: machine.0,
                        t_s: rng.gen_range(0.0..100.0),
                        used_mem_mb: rng.gen_range(0..4096u64),
                        ..Default::default()
                    })
                } else {
                    fuxi_obs::MetricsReport::Job(fuxi_obs::JobReport {
                        app: app.0,
                        job: job.0,
                        instances_running: rng.gen_range(0..64u64),
                        ..Default::default()
                    })
                },
            },
            10 => Msg::AgentAllocationReport {
                machine,
                total: rres(rng),
                allocations: vec![(app, unit, rres(rng), rng.gen_range(0..8u64))],
                app_masters: vec![(app, rid(rng))],
            },
            11 => Msg::AgentCapacitySnapshot {
                allocations: vec![(app, unit, rres(rng), rng.gen_range(0..8u64))],
            },
            12 => Msg::AppMasterExited { app, machine },
            13 => Msg::WorkerExited { app, worker, machine, reason: FailReason::Crashed },
            14 => Msg::AmAttach { app, units: vec![runit(rng)] },
            15 => Msg::RequestUpdate {
                app,
                seq: rng.gen_range(1..100u64),
                deltas: vec![RequestDelta {
                    unit,
                    machine: vec![(machine, rng.gen_range(-4..4i64))],
                    rack: vec![],
                    cluster: rng.gen_range(-8..8i64),
                    avoid_add: vec![machine],
                    avoid_remove: vec![],
                }],
            },
            16 => Msg::ReturnGrant { app, unit, machine, count: rng.gen_range(1..4u64) },
            17 => Msg::FullRequestSync {
                app,
                units: vec![runit(rng)],
                states: vec![rstate(rng)],
                held: vec![(unit, vec![(machine, rng.gen_range(0..4u64))])],
            },
            18 => Msg::GrantUpdate {
                seq: rng.gen_range(1..100u64),
                grants: vec![GrantDelta {
                    unit,
                    changes: vec![(machine, rng.gen_range(-4..4i64))],
                }],
            },
            19 => Msg::FullGrantSync {
                snapshot: vec![(unit, vec![(machine, rng.gen_range(0..4u64))])],
            },
            20 => Msg::RequestSyncNeeded { app },
            21 => Msg::GrantSyncNeeded { app },
            22 => Msg::AmDetach { app },
            23 => Msg::BadMachineReport { app, machine },
            24 => Msg::StartWorker {
                spec: WorkerSpec {
                    app,
                    worker,
                    unit,
                    limit: rres(rng),
                    binary_mb: rng.gen_range(0.0..400.0),
                    master: rid(rng),
                    usage_factor: rng.gen_range(0.1..1.5),
                },
            },
            25 => Msg::WorkerStartFailed {
                worker,
                machine,
                reason: if rng.gen_range(0..2u32) == 1 {
                    StartFailure::Machine
                } else {
                    StartFailure::Capacity
                },
            },
            26 => Msg::StopWorker { app, worker },
            27 => Msg::CapacityWarning { app, machine, over: rres(rng) },
            28 => Msg::WorkerListQuery { app, machine },
            29 => Msg::WorkerListReply { app, machine, workers: vec![worker] },
            30 => Msg::WorkerRegister { app, worker, machine },
            31 => Msg::AssignInstance {
                instance: rinst(rng),
                attempt: rng.gen_range(0..4u32),
                work: rwork(rng),
            },
            32 => Msg::InstanceReport {
                worker,
                instance: rinst(rng),
                attempt: rng.gen_range(0..4u32),
                progress: rng.gen_range(0.0..1.0),
            },
            33 => Msg::InstanceFinished {
                worker,
                instance: rinst(rng),
                attempt: rng.gen_range(0..4u32),
                outcome: if rng.gen_range(0..2u32) == 1 {
                    InstanceOutcome::Success
                } else {
                    InstanceOutcome::Failed(FailReason::IoError)
                },
                runtime_s: rng.gen_range(0.0..100.0),
            },
            34 => Msg::KillInstance { instance: rinst(rng), attempt: rng.gen_range(0..4u32) },
            35 => Msg::WorkerExit,
            36 => Msg::WorkerStatusQuery,
            37 => Msg::WorkerStatusReply {
                app,
                worker,
                machine,
                running: Some((rinst(rng), rng.gen_range(0..4u32), rng.gen_range(0.0..1.0))),
            },
            38 => Msg::LockAcquire { name: "fuxi-master".into(), ttl_s: rng.gen_range(1.0..10.0) },
            39 => Msg::LockGranted { name: "fuxi-master".into() },
            40 => Msg::LockKeepalive { name: "fuxi-master".into() },
            41 => Msg::LockRelease { name: "fuxi-master".into() },
            42 => Msg::LockLost { name: "fuxi-master".into() },
            _ => Msg::FlowDone { tag: rng.gen_range(0..1u64 << 40), failed: rng.gen_range(0..2u32) == 1 },
        }
    }

    const N_SAMPLES: usize = 44;

    #[test]
    fn every_variant_roundtrips() {
        let mut rng = SmallRng::seed_from_u64(2014);
        for ix in 0..N_SAMPLES {
            let msg = sample(ix, &mut rng);
            let back = roundtrip(&msg);
            assert_eq!(
                format!("{msg:?}"),
                format!("{back:?}"),
                "variant {ix} did not survive the wire"
            );
        }
        // Exhaustiveness guard: `variant_index` must stay in sync with the
        // enum (the compiler enforces it) and with the sampler (sample
        // `ix` is variant `ix`, so 0..N_SAMPLES covers every variant).
        let mut rng = SmallRng::seed_from_u64(7);
        for ix in 0..N_SAMPLES {
            assert_eq!(variant_index(&sample(ix, &mut rng)), ix);
        }
    }

    proptest! {
        #[test]
        fn randomized_msgs_roundtrip_exactly(seed in 0..u64::MAX, ix in 0..N_SAMPLES) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let msg = sample(ix, &mut rng);
            let back = roundtrip(&msg);
            prop_assert_eq!(format!("{:?}", msg), format!("{:?}", back));
        }

        #[test]
        fn floats_and_u64s_are_bit_exact(bits in 0..u64::MAX) {
            let v = Value::Float(f64::from_bits(bits));
            let mut out = Vec::new();
            encode_value(&v, &mut out);
            let mut r = Reader { buf: &out, pos: 0 };
            let back = decode_value(&mut r, 0).unwrap();
            match (v, back) {
                (Value::Float(a), Value::Float(b)) => prop_assert_eq!(a.to_bits(), b.to_bits()),
                _ => prop_assert!(false),
            }
            let u = Value::UInt(bits);
            let mut out = Vec::new();
            encode_value(&u, &mut out);
            let mut r = Reader { buf: &out, pos: 0 };
            prop_assert_eq!(decode_value(&mut r, 0).unwrap(), Value::UInt(bits));
        }
    }

    #[test]
    fn control_payloads_roundtrip() {
        let hello = Hello {
            node: "agents-1".into(),
            node_index: 3,
            actor_base: 3 << 24,
            session_epoch: 7,
        };
        let bytes = encode_payload(PROTO_VERSION, &hello).unwrap();
        assert_eq!(decode_payload::<Hello>(PROTO_VERSION, &bytes).unwrap(), hello);

        let ack = HelloAck {
            node: "driver".into(),
            names: vec![("fuxi-master".into(), ActorId(42))],
            store: vec![("fm/hard".into(), vec![1, 2, 3])],
        };
        let bytes = encode_payload(PROTO_VERSION, &ack).unwrap();
        assert_eq!(decode_payload::<HelloAck>(PROTO_VERSION, &bytes).unwrap(), ack);

        let upd = NameUpdate { name: "fuxi-master".into(), id: None };
        let bytes = encode_payload(PROTO_VERSION, &upd).unwrap();
        assert_eq!(decode_payload::<NameUpdate>(PROTO_VERSION, &bytes).unwrap(), upd);

        let put = StoreUpdate { key: "k".into(), value: Some(vec![9]) };
        let bytes = encode_payload(PROTO_VERSION, &put).unwrap();
        assert_eq!(decode_payload::<StoreUpdate>(PROTO_VERSION, &bytes).unwrap(), put);
    }

    #[test]
    fn wrong_version_is_typed_mismatch() {
        let msg = Msg::StopJob { job: JobId(1) };
        assert_eq!(
            encode_payload(PROTO_VERSION + 1, &msg).unwrap_err(),
            WireError::VersionMismatch { ours: PROTO_VERSION, theirs: PROTO_VERSION + 1 }
        );
        let bytes = encode_payload(PROTO_VERSION, &msg).unwrap();
        assert_eq!(
            decode_payload::<Msg>(PROTO_VERSION + 9, &bytes).unwrap_err(),
            WireError::VersionMismatch { ours: PROTO_VERSION, theirs: PROTO_VERSION + 9 }
        );
    }

    #[test]
    fn header_roundtrip_and_rejections() {
        let frame = encode_frame(PROTO_VERSION, FrameType::Msg as u16, b"abc");
        let hdr = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        assert_eq!(hdr.version, PROTO_VERSION);
        assert_eq!(hdr.frame_type, FrameType::Msg as u16);
        assert_eq!(hdr.len, 3);

        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            parse_header(bad[..HEADER_LEN].try_into().unwrap()),
            Err(WireError::BadMagic(_))
        ));

        let mut huge = encode_frame(PROTO_VERSION, FrameType::Msg as u16, b"");
        huge[8..12].copy_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(matches!(
            parse_header(huge[..HEADER_LEN].try_into().unwrap()),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn malformed_payload_is_error_not_panic() {
        assert!(decode_payload::<Msg>(PROTO_VERSION, &[]).is_err());
        assert!(decode_payload::<Msg>(PROTO_VERSION, &[255, 0, 1]).is_err());
        // A valid value of the wrong shape fails typed decode cleanly.
        let bytes = encode_payload(PROTO_VERSION, &"just a string".to_owned()).unwrap();
        assert!(decode_payload::<Msg>(PROTO_VERSION, &bytes).is_err());
        // Trailing garbage after a valid value is rejected.
        let mut bytes = encode_payload(PROTO_VERSION, &Msg::WorkerExit).unwrap();
        bytes.push(0);
        assert!(decode_payload::<Msg>(PROTO_VERSION, &bytes).is_err());
    }

    #[test]
    fn unknown_frame_type_is_identifiable_and_skippable() {
        assert_eq!(FrameType::from_u16(9999), None);
        let frame = encode_frame(PROTO_VERSION, 9999, b"future-payload");
        let hdr = parse_header(frame[..HEADER_LEN].try_into().unwrap()).unwrap();
        // The header alone tells a receiver how many bytes to step over.
        assert_eq!(hdr.len as usize, frame.len() - HEADER_LEN);
        assert_eq!(FrameType::from_u16(hdr.frame_type), None);
    }
}
