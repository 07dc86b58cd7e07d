//! # a2a-schedule
//!
//! Schedule compilation (§4 of the paper): turning the fractional MCF outputs into
//! executable artifacts for the two fabric families.
//!
//! * [`ir`] — the chunked, time-stepped schedule IR produced from a
//!   [`a2a_mcf::tsmcf::TsMcfSolution`] (link-based schedules for store-and-forward
//!   fabrics), plus executability validation.
//! * [`exec`] — execution semantics of the chunked IR: the one replay of the
//!   per-rank chunk buffers that validation, the transfer data-dependency DAG
//!   ([`exec::TransferDag`], consumed by the event-driven simulator), the realized
//!   route table and the failure snapshot's holdings ([`exec::holdings_after`]) share.
//! * [`xml`] — lowering of the chunked IR to MSCCL-style and oneCCL-style XML programs
//!   (send/recv instructions per rank per step).
//! * [`routes`] — lowering of weighted path schedules to per-commodity route tables and
//!   chunk-to-route assignments (the OMPI/UCX + Cerio source-routing path of §4).
//! * [`deadlock`] — LASH / LASH-sequential virtual-channel assignment that makes a set
//!   of routes deadlock-free on wormhole-routed fabrics (§5.5).
//! * [`splice`] — re-planning support: lowering a residual plan
//!   ([`a2a_mcf::residual`]) into suffix steps, the greedy shortest-path
//!   fallback, splicing suffix onto executed prefix ([`splice::SplicedSchedule`])
//!   with end-to-end re-validation, and the realized per-chunk route table of a
//!   schedule for [`RouteTable::validate`]-style checks.

pub mod deadlock;
pub mod exec;
pub mod ir;
pub mod routes;
pub mod splice;
pub mod xml;

pub use deadlock::{assign_virtual_channels, LashVariant, VcAssignment};
pub use exec::{holdings_after, TransferDag, TransferJob};
pub use ir::{ChunkTransfer, ChunkedSchedule, ScheduleStep};
pub use routes::{lower_path_schedule, RouteTable};
pub use splice::{
    greedy_reroute_suffix, lower_residual_suffix, realized_route_table, splice_schedule,
    SplicedSchedule,
};
pub use xml::{to_msccl_xml, to_oneccl_xml};
