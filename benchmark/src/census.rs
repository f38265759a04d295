//! `--wire-census`: which frames a `dist_null` job puts on the wire.
//!
//! The hub only counts relayed/dropped/accepted frames, so the census puts
//! a transparent TCP tap between the leaves and the hub, parses every frame
//! that passes (public `wire::parse_header` / `decode_payload`), and tallies
//! them by frame type and `Msg` variant. Its table is where the weights of
//! the fixed mix in `wire_mix.rs` come from; rerun it when the protocol
//! changes to see whether the mix is still representative. The tap adds a
//! hop, so no latency or throughput is taken from a census run.

use crate::dist::Deployment;
use crate::jobs::{JobGen, JobKind};
use crate::live::{closed_loop, hard_deadline, JobSink, LiveParams, Stop};
use crate::RunOpts;
use fuxi_proto::wire::{self, RoutedMsg, HEADER_LEN};
use fuxi_proto::{FrameType, PROTO_VERSION};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// (frames, payload bytes, largest payload) per frame kind; `origin` separates messages a
/// process encoded from the copies the hub relays onward.
type Tally = Arc<Mutex<BTreeMap<(Origin, String), (u64, u64, usize)>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Origin {
    /// Leaf → hub, or hub → leaf from a hub-hosted actor: one encode each.
    Encoded,
    /// Hub → leaf copy of a leaf's frame (relay or replication broadcast).
    Relayed,
}

/// `Msg::Variant`, or the frame type for non-`Msg` frames.
fn frame_name(frame_type: u16, payload: &[u8]) -> (String, Option<RoutedMsg>) {
    match FrameType::from_u16(frame_type) {
        Some(FrameType::Msg) => match wire::decode_payload::<RoutedMsg>(PROTO_VERSION, payload) {
            Ok(r) => {
                let dbg = format!("{:?}", r.msg);
                let variant = dbg.split([' ', '{', '(']).next().unwrap_or("?").to_owned();
                (format!("Msg::{variant}"), Some(r))
            }
            Err(_) => ("Msg::<undecodable>".to_owned(), None),
        },
        Some(ft) => (format!("{ft:?}"), None),
        None => (format!("unknown({frame_type})"), None),
    }
}

/// Copies frames `from` → `to` until either side closes, tallying each.
fn pump(mut from: TcpStream, mut to: TcpStream, upstream: bool, tally: Tally) {
    let mut hdr = [0u8; HEADER_LEN];
    while from.read_exact(&mut hdr).is_ok() {
        let Ok(h) = wire::parse_header(&hdr) else {
            break;
        };
        let mut payload = vec![0u8; h.len as usize];
        if from.read_exact(&mut payload).is_err() {
            break;
        }
        let (name, routed) = frame_name(h.frame_type, &payload);
        let origin = match routed {
            _ if upstream => Origin::Encoded,
            Some(r) if r.from.node_index() == 0 => Origin::Encoded,
            _ => Origin::Relayed,
        };
        let mut t = tally.lock().expect("tally lock");
        let e = t.entry((origin, name)).or_default();
        e.0 += 1;
        e.1 += payload.len() as u64;
        e.2 = e.2.max(payload.len());
        drop(t);
        if to
            .write_all(&hdr)
            .and_then(|()| to.write_all(&payload))
            .is_err()
        {
            break;
        }
    }
    let _ = to.shutdown(std::net::Shutdown::Both);
}

/// Listens on an ephemeral port and splices every connection onto the hub.
fn start_tap(hub_addr: String, tally: Tally) -> std::io::Result<String> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?.to_string();
    std::thread::spawn(move || {
        for leaf in listener.incoming().map_while(Result::ok) {
            let Ok(hub) = TcpStream::connect(&hub_addr) else {
                break;
            };
            let _ = (leaf.set_nodelay(true), hub.set_nodelay(true));
            let (Ok(leaf2), Ok(hub2)) = (leaf.try_clone(), hub.try_clone()) else {
                break;
            };
            let (t1, t2) = (tally.clone(), tally.clone());
            std::thread::spawn(move || pump(leaf, hub, true, t1));
            std::thread::spawn(move || pump(hub2, leaf2, false, t2));
        }
    });
    Ok(addr)
}

pub fn run() -> bool {
    let p = LiveParams::dist_null(false);
    let opts = RunOpts {
        seed: 2014,
        seconds: 6.0,
        traced: false,
        smoke: false,
    };
    let tally: Tally = Default::default();
    let tap = |hub_addr| start_tap(hub_addr, tally.clone()).map_err(|e| format!("tap: {e}"));
    let Deployment { mut hub, children } = match Deployment::boot(&p, &opts, tap) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("wire-census: {e}");
            return false;
        }
    };
    let mut gen = JobGen::new(opts.seed, JobKind::Null);
    let window = Duration::from_secs_f64(opts.seconds);
    let phase = closed_loop(
        &mut hub,
        &mut gen,
        0,
        p.in_flight,
        Stop::Window(window),
        hard_deadline(window),
        &[],
        |_, _| {},
    );
    let jobs = hub.finished().max(1) as f64;
    drop(children);
    let t = tally.lock().expect("tally lock");
    let encoded: u64 = t
        .iter()
        .filter(|((o, _), _)| *o == Origin::Encoded)
        .map(|(_, v)| v.0)
        .sum();
    println!(
        "wire census: {jobs} null jobs in {:.1}s at {} in flight over 4 processes; {encoded} frames encoded",
        phase.open_s, p.in_flight
    );
    println!(
        "{:<8} {:<28} {:>9} {:>9} {:>7} {:>10} {:>10}",
        "origin", "frame", "frames", "per job", "share", "mean bytes", "max bytes"
    );
    for ((origin, name), (frames, bytes, largest)) in t.iter() {
        println!(
            "{:<8} {name:<28} {frames:>9} {:>9.2} {:>6.1}% {:>10.0} {largest:>10}",
            format!("{origin:?}").to_lowercase(),
            *frames as f64 / jobs,
            if *origin == Origin::Encoded {
                100.0 * *frames as f64 / encoded as f64
            } else {
                0.0
            },
            *bytes as f64 / *frames as f64
        );
    }
    !phase.timed_out && encoded > 0
}
