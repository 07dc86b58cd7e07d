//! XML lowering of chunked link-based schedules.
//!
//! The paper lowers its schedules to two runtimes (§4): MSCCL (GPU, an interpreter for
//! XML collective programs that extends NCCL) and oneCCL + libfabric (CPU, extended by
//! the authors with a similar interpreter). Both consume a per-rank program of
//! send / receive (and for oneCCL copy/sync) instructions grouped by thread block /
//! step. The emitters here produce the same structure as self-contained XML strings so
//! they can be inspected, diffed and replayed by the simulator.

use crate::ir::ChunkedSchedule;

/// Escapes the handful of XML-special characters that can appear in names.
fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
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
    for rank in 0..schedule.num_ranks {
        out.push_str(&format!("  <gpu id=\"{rank}\">\n"));
        for (t, step) in schedule.steps.iter().enumerate() {
            out.push_str(&format!("    <tb id=\"{t}\" step=\"{t}\">\n"));
            for tr in &step.transfers {
                if tr.from == rank {
                    out.push_str(&format!(
                        "      <s peer=\"{}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\"/>\n",
                        tr.to, tr.origin, tr.final_dest, tr.chunks
                    ));
                }
                if tr.to == rank {
                    out.push_str(&format!(
                        "      <r peer=\"{}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\"/>\n",
                        tr.from, tr.origin, tr.final_dest, tr.chunks
                    ));
                }
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
    for rank in 0..schedule.num_ranks {
        out.push_str(&format!(
            "  <rank id=\"{rank}\">\n    <scratch chunks=\"{}\"/>\n",
            schedule.chunks_per_shard * schedule.num_ranks
        ));
        for (t, step) in schedule.steps.iter().enumerate() {
            out.push_str(&format!("    <step id=\"{t}\">\n"));
            for tr in &step.transfers {
                if tr.from == rank {
                    let buffer = if tr.origin == rank {
                        "input"
                    } else {
                        "scratch"
                    };
                    out.push_str(&format!(
                        "      <send to=\"{}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\" buf=\"{}\"/>\n",
                        tr.to, tr.origin, tr.final_dest, tr.chunks, buffer
                    ));
                }
                if tr.to == rank {
                    let buffer = if tr.final_dest == rank {
                        "output"
                    } else {
                        "scratch"
                    };
                    out.push_str(&format!(
                        "      <recv from=\"{}\" origin=\"{}\" dst=\"{}\" cnt=\"{}\" buf=\"{}\"/>\n",
                        tr.from, tr.origin, tr.final_dest, tr.chunks, buffer
                    ));
                }
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

    #[test]
    fn send_counts_match_schedule_totals() {
        let (_, sched) = sample_schedule();
        let xml = to_msccl_xml(&sched, "ring3");
        assert_eq!(xml.matches("<s peer=").count(), sched.total_transfers());
    }
}
