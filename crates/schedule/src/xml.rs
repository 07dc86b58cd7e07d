//! XML lowering of chunked link-based schedules.
//!
//! The paper lowers its schedules to two runtimes (§4): MSCCL (GPU, an interpreter for
//! XML collective programs that extends NCCL) and oneCCL + libfabric (CPU, extended by
//! the authors with a similar interpreter). Both consume a per-rank program of
//! send / receive (and for oneCCL copy/sync) instructions grouped by thread block /
//! step. The emitters here produce the same structure as self-contained XML strings so
//! they can be inspected, diffed and replayed by the simulator.
//!
//! # Writer
//!
//! Each writer builds the per-rank program once per call: every rank's
//! instructions of every step as one compressed row per `(rank, step)` cell, in
//! transfer order. It then writes each line once, straight into one `String`
//! reserved from the transfer count, copying the fixed fragments and printing
//! integers with a small decimal formatter. Nothing survives the call. Test
//! builds keep the `format!` writers these replaced (`xml/reference.rs`), and
//! the tests hold both writers to them byte for byte.

use crate::ir::{ChunkTransfer, ChunkedSchedule};

#[cfg(test)]
mod reference;

/// Every rank's program: cell `rank * steps + t` lists the rank's
/// instructions at step `t` in transfer order, a send (`true`) or a receive
/// of the step's transfer at an index, the send first when a transfer is both.
struct Program<'a> {
    schedule: &'a ChunkedSchedule,
    steps: usize,
    /// Cell `c` is `ops[offsets[c]..offsets[c + 1]]`.
    offsets: Vec<usize>,
    ops: Vec<(bool, usize)>,
}

impl<'a> Program<'a> {
    fn new(schedule: &'a ChunkedSchedule) -> Self {
        let (n, steps) = (schedule.num_ranks, schedule.num_steps());
        // The in-range ends of each transfer, as (send, cell).
        let ends = |t: usize, tr: &ChunkTransfer| {
            [(true, tr.from), (false, tr.to)]
                .into_iter()
                .filter(move |&(_, rank)| rank < n)
                .map(move |(send, rank)| (send, rank * steps + t))
        };
        let mut offsets = vec![0; n * steps + 1];
        for (t, step) in schedule.steps.iter().enumerate() {
            for tr in &step.transfers {
                for (_, cell) in ends(t, tr) {
                    offsets[cell + 1] += 1;
                }
            }
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut next = offsets.clone();
        let mut ops = vec![(false, 0); offsets[n * steps]];
        for (t, step) in schedule.steps.iter().enumerate() {
            for (i, tr) in step.transfers.iter().enumerate() {
                for (send, cell) in ends(t, tr) {
                    ops[next[cell]] = (send, i);
                    next[cell] += 1;
                }
            }
        }
        Self {
            schedule,
            steps,
            offsets,
            ops,
        }
    }

    /// Rank `rank`'s instructions at step `t`.
    fn ops(&self, rank: usize, t: usize) -> impl Iterator<Item = (bool, &'a ChunkTransfer)> + '_ {
        let cell = rank * self.steps + t;
        let transfers = &self.schedule.steps[t].transfers;
        self.ops[self.offsets[cell]..self.offsets[cell + 1]]
            .iter()
            .map(move |&(send, i)| (send, &transfers[i]))
    }
}

/// One writer's output, reserved once. It holds the bytes of ASCII fragments,
/// decimal digits and a `&str` name, so it is UTF-8 throughout.
struct Xml(Vec<u8>);

impl Xml {
    /// Reserves room for `program` and `name`, at `per_op`, `per_cell` and
    /// `per_rank` fixed bytes around each instruction, `(rank, step)` cell
    /// and rank, with up to four integers in each, as wide as the larger of
    /// the rank and chunk counts.
    fn reserve(
        program: &Program,
        name: &str,
        per_op: usize,
        per_cell: usize,
        per_rank: usize,
    ) -> Self {
        let schedule = program.schedule;
        let width = digits(schedule.num_ranks.max(schedule.chunks_per_shard));
        let ranks = schedule.num_ranks;
        let bytes = 128
            + 6 * name.len()
            + program.ops.len() * (per_op + 4 * width)
            + ranks * program.steps * (per_cell + 2 * width)
            + ranks * (per_rank + 2 * width);
        Self(Vec::with_capacity(bytes))
    }

    /// Appends `s` with the XML-special characters that can appear in a name
    /// escaped.
    fn escaped(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            match b {
                b'&' => self.0.extend_from_slice(b"&amp;"),
                b'<' => self.0.extend_from_slice(b"&lt;"),
                b'>' => self.0.extend_from_slice(b"&gt;"),
                b'"' => self.0.extend_from_slice(b"&quot;"),
                b => self.0.push(b),
            }
        }
        self
    }

    /// Appends `line` and clears it.
    fn line(&mut self, line: &mut Line) -> &mut Self {
        self.0.extend_from_slice(&line.bytes[..line.len]);
        line.len = 0;
        self
    }

    fn finish(self) -> String {
        String::from_utf8(self.0).expect("fragments, digits and a name are UTF-8")
    }
}

/// A line under construction on the stack: fixed fragments and at most four
/// integers (an instruction line is at most 140 bytes).
struct Line {
    bytes: [u8; 192],
    len: usize,
}

impl Line {
    fn new() -> Self {
        Self {
            bytes: [0; 192],
            len: 0,
        }
    }

    fn push(&mut self, s: &str) -> &mut Self {
        self.bytes[self.len..][..s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
        self
    }

    /// Appends the decimal digits of `v`, as `{v}` formats it.
    fn uint(&mut self, mut v: usize) -> &mut Self {
        let n = digits(v);
        let out = &mut self.bytes[self.len..][..n];
        for d in out.iter_mut().rev() {
            *d = b'0' + (v % 10) as u8;
            v /= 10;
        }
        self.len += n;
        self
    }
}

/// Decimal digits of `v`.
fn digits(v: usize) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Lowers a chunked schedule to an MSCCL-style XML program.
///
/// Structure: one `<gpu>` element per rank containing one `<tb>` (thread block) per
/// communication step, whose `<step>` children are `s` (send) and `r` (receive)
/// instructions with chunk counts and the peer rank.
pub fn to_msccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
    let program = Program::new(schedule);
    let mut out = Xml::reserve(&program, name, 43, 33, 23);
    let mut line = Line::new();
    out.line(line.push("<algo name=\"")).escaped(name).line(
        line.push("\" nchunksperloop=\"")
            .uint(schedule.chunks_per_shard)
            .push("\" nranks=\"")
            .uint(schedule.num_ranks)
            .push("\" nsteps=\"")
            .uint(schedule.num_steps())
            .push("\" proto=\"Simple\" coll=\"alltoall\">\n"),
    );
    for rank in 0..schedule.num_ranks {
        out.line(line.push("  <gpu id=\"").uint(rank).push("\">\n"));
        for t in 0..program.steps {
            out.line(
                line.push("    <tb id=\"")
                    .uint(t)
                    .push("\" step=\"")
                    .uint(t)
                    .push("\">\n"),
            );
            for (send, tr) in program.ops(rank, t) {
                let (tag, peer) = if send {
                    ("      <s peer=\"", tr.to)
                } else {
                    ("      <r peer=\"", tr.from)
                };
                out.line(
                    line.push(tag)
                        .uint(peer)
                        .push("\" origin=\"")
                        .uint(tr.origin)
                        .push("\" dst=\"")
                        .uint(tr.final_dest)
                        .push("\" cnt=\"")
                        .uint(tr.chunks)
                        .push("\"/>\n"),
                );
            }
            out.line(line.push("    </tb>\n"));
        }
        out.line(line.push("  </gpu>\n"));
    }
    out.line(line.push("</algo>\n"));
    out.finish()
}

/// Lowers a chunked schedule to a oneCCL-style XML program.
///
/// oneCCL programs additionally materialise scratch buffers for chunk forwarding and a
/// `sync` instruction at the end of every step (store-and-forward semantics on CPUs).
pub fn to_oneccl_xml(schedule: &ChunkedSchedule, name: &str) -> String {
    let program = Program::new(schedule);
    let mut out = Xml::reserve(&program, name, 59, 43, 51);
    let mut line = Line::new();
    out.line(line.push("<schedule name=\"")).escaped(name).line(
        line.push("\" ranks=\"")
            .uint(schedule.num_ranks)
            .push("\" chunks_per_shard=\"")
            .uint(schedule.chunks_per_shard)
            .push("\" steps=\"")
            .uint(schedule.num_steps())
            .push("\">\n"),
    );
    for rank in 0..schedule.num_ranks {
        out.line(
            line.push("  <rank id=\"")
                .uint(rank)
                .push("\">\n    <scratch chunks=\"")
                .uint(schedule.chunks_per_shard * schedule.num_ranks)
                .push("\"/>\n"),
        );
        for t in 0..program.steps {
            out.line(line.push("    <step id=\"").uint(t).push("\">\n"));
            for (send, tr) in program.ops(rank, t) {
                // A rank sends its own shard from its input and forwards the
                // rest from scratch; it receives its own chunks into its output.
                let (tag, peer, own, own_buffer) = if send {
                    ("      <send to=\"", tr.to, tr.origin == rank, "input")
                } else {
                    (
                        "      <recv from=\"",
                        tr.from,
                        tr.final_dest == rank,
                        "output",
                    )
                };
                out.line(
                    line.push(tag)
                        .uint(peer)
                        .push("\" origin=\"")
                        .uint(tr.origin)
                        .push("\" dst=\"")
                        .uint(tr.final_dest)
                        .push("\" cnt=\"")
                        .uint(tr.chunks)
                        .push("\" buf=\"")
                        .push(if own { own_buffer } else { "scratch" })
                        .push("\"/>\n"),
                );
            }
            out.line(line.push("      <sync/>\n    </step>\n"));
        }
        out.line(line.push("  </rank>\n"));
    }
    out.line(line.push("</schedule>\n"));
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ChunkedSchedule;
    use crate::ir::ScheduleStep;
    use a2a_mcf::tscolgen::solve_tsmcf_colgen_auto;
    use a2a_topology::generators;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

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

    /// The values the integer formatter must print as `format!` does: both
    /// sides of each power of ten it crosses, and the extremes.
    const VALUES: [usize; 7] = [0, 9, 10, 99, 100, 1_000_000, usize::MAX];

    /// A seeded hand-built schedule: ranks and counts drawn from [`VALUES`]
    /// and from the schedule's own ranks, one empty step, and steps of up to
    /// five transfers, so most ranks have no instruction at some step and
    /// many at none.
    fn seeded_schedule(seed: u64) -> ChunkedSchedule {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let num_ranks = [0, 1, 9, 10, 11, 100][rng.random_range(0..6)];
        let mut chunks_per_shard = VALUES[rng.random_range(0..VALUES.len())];
        if chunks_per_shard.checked_mul(num_ranks).is_none() {
            // oneCCL's scratch size is their product.
            chunks_per_shard = usize::MAX / num_ranks;
        }
        let rank = |rng: &mut ChaCha8Rng| {
            if num_ranks > 0 && rng.random_bool(0.7) {
                rng.random_range(0..num_ranks)
            } else {
                VALUES[rng.random_range(0..VALUES.len())]
            }
        };
        let mut steps: Vec<ScheduleStep> = (0..rng.random_range(0..4))
            .map(|_| ScheduleStep {
                transfers: (0..rng.random_range(1..6))
                    .map(|_| ChunkTransfer {
                        from: rank(&mut rng),
                        to: rank(&mut rng),
                        origin: rank(&mut rng),
                        final_dest: rank(&mut rng),
                        chunks: VALUES[rng.random_range(0..VALUES.len())],
                    })
                    .collect(),
            })
            .collect();
        let at = rng.random_range(0..steps.len() + 1);
        steps.insert(at, ScheduleStep::default());
        ChunkedSchedule {
            num_ranks,
            commodities: a2a_mcf::CommoditySet::all_pairs(2),
            chunks_per_shard,
            steps,
        }
    }

    /// Both writers repeat the `format!` writers they replaced byte for byte,
    /// on seeded hand-built schedules and on lowered ones.
    #[test]
    fn writers_match_the_format_reference() {
        let names = ["", "a2a-benchmark", "a<b>&\"c\"", "&&<<>>\"\"é"];
        let mut seen = [false; 3];
        let mut schedules: Vec<ChunkedSchedule> = (0..200).map(seeded_schedule).collect();
        schedules.push(sample_schedule().1);
        for (i, sched) in schedules.iter().enumerate() {
            let name = names[i % names.len()];
            assert_eq!(
                to_msccl_xml(sched, name),
                reference::to_msccl_xml(sched, name),
                "MSCCL, schedule {i}"
            );
            assert_eq!(
                to_oneccl_xml(sched, name),
                reference::to_oneccl_xml(sched, name),
                "oneCCL, schedule {i}"
            );
            let active = |r: usize| {
                sched
                    .steps
                    .iter()
                    .flat_map(|s| &s.transfers)
                    .any(|t| t.from == r || t.to == r)
            };
            seen[0] |= sched.num_ranks >= 9 && (0..sched.num_ranks).any(|r| !active(r));
            seen[1] |= sched.chunks_per_shard == usize::MAX;
            seen[2] |=
                sched.steps.iter().flat_map(|s| &s.transfers).any(|t| {
                    t.chunks == usize::MAX && t.from < sched.num_ranks && t.to == usize::MAX
                });
        }
        assert_eq!(
            seen, [true; 3],
            "idle rank, usize::MAX granularity, usize::MAX peer"
        );
    }
}
