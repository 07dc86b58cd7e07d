//! The writers [`super::to_msccl_xml`] and [`super::to_oneccl_xml`] replaced:
//! one `format!` per line over a `Vec<Vec<Vec<_>>>` program, kept as their
//! byte-for-byte reference.

use crate::ir::{ChunkTransfer, ChunkedSchedule};

/// Escapes the handful of XML-special characters that can appear in names.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Each rank's program, built once for both writers: `programs[rank][t]` lists
/// the rank's instructions at step `t` in transfer order, a send (`true`) or a
/// receive of each transfer, the send first when a transfer is both.
fn programs(schedule: &ChunkedSchedule) -> Vec<Vec<Vec<(bool, &ChunkTransfer)>>> {
    let mut programs = vec![vec![Vec::new(); schedule.num_steps()]; schedule.num_ranks];
    for (t, step) in schedule.steps.iter().enumerate() {
        for tr in &step.transfers {
            for (send, rank) in [(true, tr.from), (false, tr.to)] {
                if let Some(program) = programs.get_mut(rank) {
                    program[t].push((send, tr));
                }
            }
        }
    }
    programs
}

/// Lowers a chunked schedule to an MSCCL-style XML program.
///
/// Structure: one `<gpu>` element per rank containing one `<tb>` (thread block) per
/// communication step, whose `<step>` children are `s` (send) and `r` (receive)
/// instructions with chunk counts and the peer rank.
pub(super) fn to_msccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "<algo name=\"{}\" nchunksperloop=\"{}\" nranks=\"{}\" nsteps=\"{}\" proto=\"Simple\" coll=\"alltoall\">\n",
        escape(name),
        schedule.chunks_per_shard,
        schedule.num_ranks,
        schedule.num_steps()
    ));
    for (rank, steps) in programs(schedule).iter().enumerate() {
        out.push_str(&format!("  <gpu id=\"{rank}\">\n"));
        for (t, ops) in steps.iter().enumerate() {
            out.push_str(&format!("    <tb id=\"{t}\" step=\"{t}\">\n"));
            for &(send, tr) in ops {
                let (tag, peer) = if send { ("s", tr.to) } else { ("r", tr.from) };
                out.push_str(&format!(
                    "      <{tag} peer=\"{peer}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\"/>\n",
                    tr.origin, tr.final_dest, tr.chunks
                ));
            }
            out.push_str("    </tb>\n");
        }
        out.push_str("  </gpu>\n");
    }
    out.push_str("</algo>\n");
    out
}

/// Lowers a chunked schedule to a oneCCL-style XML program.
///
/// oneCCL programs additionally materialise scratch buffers for chunk forwarding and a
/// `sync` instruction at the end of every step (store-and-forward semantics on CPUs).
pub(super) fn to_oneccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "<schedule name=\"{}\" ranks=\"{}\" chunks_per_shard=\"{}\" steps=\"{}\">\n",
        escape(name),
        schedule.num_ranks,
        schedule.chunks_per_shard,
        schedule.num_steps()
    ));
    for (rank, steps) in programs(schedule).iter().enumerate() {
        out.push_str(&format!(
            "  <rank id=\"{rank}\">\n    <scratch chunks=\"{}\"/>\n",
            schedule.chunks_per_shard * schedule.num_ranks
        ));
        for (t, ops) in steps.iter().enumerate() {
            out.push_str(&format!("    <step id=\"{t}\">\n"));
            for &(send, tr) in ops {
                // A rank sends its own shard from its input and forwards the
                // rest from scratch; it receives its own chunks into its output.
                let (tag, dir, peer, own, own_buffer) = if send {
                    ("send", "to", tr.to, tr.origin == rank, "input")
                } else {
                    ("recv", "from", tr.from, tr.final_dest == rank, "output")
                };
                let buffer = if own { own_buffer } else { "scratch" };
                out.push_str(&format!(
                    "      <{tag} {dir}=\"{peer}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\" buf=\"{buffer}\"/>\n",
                    tr.origin, tr.final_dest, tr.chunks
                ));
            }
            out.push_str("      <sync/>\n    </step>\n");
        }
        out.push_str("  </rank>\n");
    }
    out.push_str("</schedule>\n");
    out
}
