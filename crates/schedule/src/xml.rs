//! XML lowering of chunked link-based schedules.
//!
//! The paper lowers its schedules to two runtimes (§4): MSCCL (GPU, an interpreter for
//! XML collective programs that extends NCCL) and oneCCL + libfabric (CPU, extended by
//! the authors with a similar interpreter). Both consume a per-rank program of
//! send / receive (and for oneCCL copy/sync) instructions grouped by thread block /
//! step. The emitters here produce the same structure as self-contained XML strings so
//! they can be inspected, diffed and replayed by the simulator.

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
pub fn to_msccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
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
pub fn to_oneccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ChunkedSchedule;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;

    fn sample_schedule() -> (a2a_topology::Topology, ChunkedSchedule) {
        let topo = generators::ring(3);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        (topo, sched)
    }

    #[test]
    fn msccl_xml_has_one_gpu_per_rank_and_balanced_sends() {
        let (_, sched) = sample_schedule();
        let xml = to_msccl_xml(&sched, "ring3");
        assert_eq!(xml.matches("<gpu id=").count(), 3);
        assert!(xml.contains("coll=\"alltoall\""));
        // Every send has a matching receive.
        assert_eq!(
            xml.matches("<s peer=").count(),
            xml.matches("<r peer=").count()
        );
        assert!(xml.starts_with("<algo"));
        assert!(xml.trim_end().ends_with("</algo>"));
    }

    #[test]
    fn oneccl_xml_contains_sync_and_scratch() {
        let (_, sched) = sample_schedule();
        let xml = to_oneccl_xml(&sched, "ring3");
        assert_eq!(xml.matches("<rank id=").count(), 3);
        assert!(xml.contains("<scratch"));
        // One sync per rank per step.
        assert_eq!(xml.matches("<sync/>").count(), 3 * sched.num_steps());
        assert_eq!(xml.matches("<send").count(), xml.matches("<recv").count());
    }

    #[test]
    fn xml_escapes_special_characters_in_names() {
        let (_, sched) = sample_schedule();
        let xml = to_msccl_xml(&sched, "a<b>&\"c\"");
        assert!(xml.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
    }

    /// FNV-1a over a string's bytes.
    fn fingerprint(xml: &str) -> u64 {
        xml.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Both writers' bytes for a lowered torus-3x3 schedule at 64 chunks per
    /// shard: `(length, FNV-1a)` of the MSCCL and the oneCCL program.
    #[test]
    fn torus_3x3_programs_are_pinned() {
        let topo = generators::torus(&[3, 3]);
        let sol = solve_tsmcf_colgen_auto(&topo).unwrap().solution;
        let sched = ChunkedSchedule::from_tsmcf(&topo, &sol, 64).unwrap();
        let (msccl, oneccl) = (
            to_msccl_xml(&sched, "torus3x3"),
            to_oneccl_xml(&sched, "torus3x3"),
        );
        assert_eq!(
            [
                (msccl.len(), fingerprint(&msccl)),
                (oneccl.len(), fingerprint(&oneccl))
            ],
            [
                (11_101, 0x81c3_b668_94b3_e8bd),
                (14_732, 0xe386_02cf_b0e8_908e)
            ]
        );
    }

    #[test]
    fn send_counts_match_schedule_totals() {
        let (_, sched) = sample_schedule();
        let xml = to_msccl_xml(&sched, "ring3");
        assert_eq!(xml.matches("<s peer=").count(), sched.total_transfers());
    }
}
