//! The Fig. 1 toolchain: formulation selection, schedule generation, lowering and
//! simulation behind one API.

use a2a_mcf::decomposed::{solve_decomposed_mcf_with, DecomposedOptions};
use a2a_mcf::pmcf::solve_path_mcf_among;
use a2a_mcf::tscolgen::solve_tsmcf_colgen_among_with;
use a2a_mcf::tsmcf::{minimum_steps, TsMcfSolution};
use a2a_mcf::{
    extract_widest_paths, ColGenOptions, CommoditySet, McfResult, PathSchedule, PathSetKind,
};
use a2a_schedule::{
    lower_path_schedule, to_msccl_xml, to_oneccl_xml, ChunkedSchedule, LashVariant, RouteTable,
};
use a2a_simnet::{simulate_link_schedule, simulate_path_schedule, SimParams, SimReport};
use a2a_topology::transform::HostNicAugmented;
use a2a_topology::{paths, NodeId, Topology};

use crate::fabric::{FabricKind, FabricSpec};

/// A generated all-to-all schedule, tagged with the graph it refers to.
#[derive(Debug, Clone)]
pub enum GeneratedSchedule {
    /// A time-stepped link-based schedule (tsMCF) for store-and-forward fabrics. When
    /// the host is a bottleneck the schedule lives on the Fig. 2 augmented graph and
    /// `hosts` lists the per-rank host vertices.
    TimeStepped {
        /// The tsMCF solution.
        solution: TsMcfSolution,
        /// The graph the solution's edges refer to (the original topology, or the
        /// host-augmented graph when the host is a bottleneck).
        topology: Topology,
        /// Host vertices (one per rank) when the augmented graph is in use.
        hosts: Option<Vec<NodeId>>,
    },
    /// A weighted multi-path schedule (pMCF or MCF-extP) for NIC-forwarding fabrics.
    Routed {
        /// The weighted path schedule.
        schedule: PathSchedule,
        /// Which formulation produced it (`"pMCF"` or `"MCF-extP"`).
        method: &'static str,
    },
}

impl GeneratedSchedule {
    /// Human-readable name of the formulation that produced the schedule.
    pub fn method(&self) -> &'static str {
        match self {
            GeneratedSchedule::TimeStepped { hosts, .. } => {
                if hosts.is_some() {
                    "tsMCF (host-bottleneck model)"
                } else {
                    "tsMCF"
                }
            }
            GeneratedSchedule::Routed { method, .. } => method,
        }
    }
}

/// A lowered, runtime-consumable artefact.
#[derive(Debug, Clone)]
pub enum LoweredArtifact {
    /// MSCCL and oneCCL XML programs plus the chunked IR they were generated from.
    LinkPrograms {
        /// The chunked schedule IR.
        chunked: ChunkedSchedule,
        /// MSCCL-style XML (GPU runtime).
        msccl_xml: String,
        /// oneCCL-style XML (CPU runtime).
        oneccl_xml: String,
    },
    /// Source-routed route tables with deadlock-free virtual channels.
    Routes {
        /// The per-commodity route table.
        table: RouteTable,
    },
}

/// The toolchain entry points.
pub struct Toolchain;

impl Toolchain {
    /// Generates the appropriate all-to-all schedule for `topo` on the given fabric,
    /// following the Fig. 1 decision flow.
    pub fn generate(topo: &Topology, fabric: &FabricSpec) -> McfResult<GeneratedSchedule> {
        match fabric.kind {
            FabricKind::MlAccelerator => Self::generate_time_stepped(topo, fabric),
            FabricKind::HpcNicForwarding => Self::generate_routed(topo, fabric),
        }
    }

    fn generate_time_stepped(topo: &Topology, fabric: &FabricSpec) -> McfResult<GeneratedSchedule> {
        let (topology, hosts) = if fabric.host_is_bottleneck(topo.max_out_degree()) {
            let host_units = fabric
                .host_injection_in_link_units()
                .expect("bottleneck implies a host bandwidth");
            let augmented = HostNicAugmented::build(topo, host_units);
            (augmented.graph, Some(augmented.hosts))
        } else {
            (topo.clone(), None)
        };
        let commodities = match &hosts {
            Some(hosts) => CommoditySet::among(hosts.clone()),
            None => CommoditySet::all_pairs(topology.num_nodes()),
        };
        let steps = minimum_steps(&topology, &commodities)?;
        let solved = solve_tsmcf_colgen_among_with(
            &topology,
            commodities,
            steps,
            &ColGenOptions::stabilized(),
        )?;
        // Pruned so the stored solution, the simulation and the consistency report
        // all describe the flow the lowering produces (`from_tsmcf` prunes too; on a
        // delivery-exact colgen solution the pass strips nothing).
        let solution = solved.solution.pruned(&topology);
        Ok(GeneratedSchedule::TimeStepped {
            solution,
            topology,
            hosts,
        })
    }

    fn generate_routed(topo: &Topology, fabric: &FabricSpec) -> McfResult<GeneratedSchedule> {
        let commodities = CommoditySet::all_pairs(topo.num_nodes());
        if Self::path_diversity_is_large(topo, fabric.path_diversity_threshold) {
            // High path diversity (e.g. tori): decomposed link MCF + widest-path
            // extraction.
            let decomposed =
                solve_decomposed_mcf_with(topo, commodities, &DecomposedOptions::default())?;
            let schedule = extract_widest_paths(topo, &decomposed.solution)?;
            Ok(GeneratedSchedule::Routed {
                schedule,
                method: "MCF-extP",
            })
        } else {
            // Low path diversity (e.g. expanders): path-based MCF over edge-disjoint
            // candidate paths.
            let schedule = solve_path_mcf_among(topo, commodities, PathSetKind::EdgeDisjoint)?;
            Ok(GeneratedSchedule::Routed {
                schedule,
                method: "pMCF",
            })
        }
    }

    /// Probes a sample of commodities and reports whether the number of shortest paths
    /// exceeds the threshold for any of them (the Fig. 1 "#(s,d) paths large?" test).
    fn path_diversity_is_large(topo: &Topology, threshold: usize) -> bool {
        let n = topo.num_nodes();
        let mut probes = 0usize;
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                probes += 1;
                if probes > 32 {
                    return false;
                }
                let count = paths::all_shortest_paths(topo, s, d, threshold + 1).len();
                if count > threshold {
                    return true;
                }
            }
        }
        false
    }

    /// Lowers a generated schedule to its runtime artefact.
    pub fn lower(
        topo: &Topology,
        generated: &GeneratedSchedule,
    ) -> Result<LoweredArtifact, String> {
        match generated {
            GeneratedSchedule::TimeStepped {
                solution, topology, ..
            } => {
                let chunked = ChunkedSchedule::from_tsmcf(topology, solution, 256)?;
                let msccl_xml = to_msccl_xml(&chunked, topo.name());
                let oneccl_xml = to_oneccl_xml(&chunked, topo.name());
                Ok(LoweredArtifact::LinkPrograms {
                    chunked,
                    msccl_xml,
                    oneccl_xml,
                })
            }
            GeneratedSchedule::Routed { schedule, .. } => {
                let table = lower_path_schedule(topo, schedule, 16, LashVariant::Sequential);
                let issues = table.validate();
                if !issues.is_empty() {
                    return Err(issues.join("; "));
                }
                Ok(LoweredArtifact::Routes { table })
            }
        }
    }

    /// Simulates a generated schedule with the given shard size (bytes per
    /// destination) and fabric parameters, reporting the paper's throughput metric.
    pub fn simulate(
        topo: &Topology,
        generated: &GeneratedSchedule,
        shard_bytes: u64,
        fabric: &FabricSpec,
    ) -> SimReport {
        let mut params = SimParams {
            link_bandwidth_gbps: fabric.link_bandwidth_gbps,
            ..SimParams::default()
        };
        match generated {
            GeneratedSchedule::TimeStepped {
                solution, topology, ..
            } => simulate_link_schedule(topology, solution, shard_bytes as f64, &params),
            GeneratedSchedule::Routed { schedule, .. } => {
                params.host_injection_gbps = fabric.host_injection_gbps;
                simulate_path_schedule(topo, schedule, shard_bytes as f64, &params)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a2a_topology::generators;

    #[test]
    fn ml_fabric_produces_time_stepped_schedules() {
        let topo = generators::hypercube(2);
        let fabric = FabricSpec::ml_accelerator(3.125);
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        assert_eq!(generated.method(), "tsMCF");
        match &generated {
            GeneratedSchedule::TimeStepped {
                solution,
                topology,
                hosts,
            } => {
                assert!(hosts.is_none());
                assert_eq!(topology.num_nodes(), 4);
                assert!(solution.check_consistency(topology, 1e-6).is_empty());
            }
            _ => panic!("expected a time-stepped schedule"),
        }
        let lowered = Toolchain::lower(&topo, &generated).unwrap();
        match lowered {
            LoweredArtifact::LinkPrograms {
                chunked,
                msccl_xml,
                oneccl_xml,
            } => {
                assert!(chunked.validate(&topo).is_empty());
                assert!(msccl_xml.contains("<algo"));
                assert!(oneccl_xml.contains("<schedule"));
            }
            _ => panic!("expected link programs"),
        }
        let report = Toolchain::simulate(&topo, &generated, 1 << 22, &fabric);
        assert!(report.throughput_gbps > 0.0);
    }

    #[test]
    fn host_bottleneck_triggers_augmentation() {
        // Degree-4 ring of NICs with a host that can only feed 2 links' worth.
        let topo = generators::complete(4);
        let fabric = FabricSpec::ml_accelerator(3.125).with_host_injection(2.0 * 3.125);
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        assert_eq!(generated.method(), "tsMCF (host-bottleneck model)");
        match &generated {
            GeneratedSchedule::TimeStepped {
                topology, hosts, ..
            } => {
                assert_eq!(topology.num_nodes(), 12);
                assert_eq!(hosts.as_ref().unwrap().len(), 4);
            }
            _ => panic!("expected a time-stepped schedule"),
        }
    }

    #[test]
    fn hpc_fabric_on_expanders_uses_pmcf() {
        let topo = generators::generalized_kautz(10, 3);
        let fabric = FabricSpec::hpc_nic_forwarding(3.125);
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        assert_eq!(generated.method(), "pMCF");
        let report = Toolchain::simulate(&topo, &generated, 1 << 24, &fabric);
        assert!(report.throughput_gbps > 0.0);
    }

    #[test]
    fn hpc_fabric_on_tori_uses_extraction() {
        // Tori have multiple shortest paths per pair; with a threshold of 1 the
        // flowchart routes them to MCF-extP (the paper's choice for high-diversity
        // topologies).
        let topo = generators::torus(&[3, 3]);
        let mut fabric = FabricSpec::hpc_nic_forwarding(3.125);
        fabric.path_diversity_threshold = 1;
        let generated = Toolchain::generate(&topo, &fabric).unwrap();
        assert_eq!(generated.method(), "MCF-extP");
        let lowered = Toolchain::lower(&topo, &generated).unwrap();
        match lowered {
            LoweredArtifact::Routes { table } => {
                assert!(table.validate().is_empty());
                assert!(table.num_layers <= 4);
            }
            _ => panic!("expected route tables"),
        }
    }

    #[test]
    fn path_diversity_probe_distinguishes_families() {
        // A torus pair two hops apart already has more than one shortest path.
        assert!(Toolchain::path_diversity_is_large(
            &generators::torus(&[3, 3]),
            1
        ));
        // The expander keeps shortest-path counts small.
        assert!(!Toolchain::path_diversity_is_large(
            &generators::generalized_kautz(10, 3),
            16
        ));
    }
}
