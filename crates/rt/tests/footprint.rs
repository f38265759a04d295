//! What an idle mailbox costs. The pre-allocated ring this replaced touched
//! every slot up front: 1,000 mailboxes of 8,192 x 200 B were 1.6 GB.
//!
//! One test in this file on purpose: it reads the process-wide `VmRSS:`.

use fuxi_rt::mailbox::mailbox;
use fuxi_rt::PushOutcome;

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS in status");
    line.split_whitespace()
        .nth(1)
        .expect("value")
        .parse()
        .expect("number")
}

#[test]
fn a_thousand_mailboxes_of_capacity_8192_cost_under_16_mb() {
    let before = vm_rss_kb();
    let boxes: Vec<_> = (0..1_000).map(|_| mailbox::<[u8; 200]>(8192)).collect();
    // One value through each, so every queue has allocated its first block.
    for (tx, rx, gauges) in &boxes {
        assert_eq!(tx.push([7; 200]), PushOutcome::Sent);
        assert_eq!(rx.recv().map(|v| v[0]).ok(), Some(7));
        gauges.on_pop();
    }
    let grown_kb = vm_rss_kb().saturating_sub(before);
    assert!(
        grown_kb < 16 * 1024,
        "1,000 mailboxes grew VmRSS by {grown_kb} kB"
    );
}
