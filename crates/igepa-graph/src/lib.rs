//! # igepa-graph — social-network substrate for IGEPA
//!
//! The utility of an IGEPA arrangement rewards socially active participants
//! through the *degree of potential interaction* `D(G, u)` (Definition 6 of
//! the paper): the degree of user `u` in the social network `G = (U, E)`,
//! normalised by `|U| − 1`.
//!
//! This crate provides:
//!
//! * [`SocialNetwork`] — compact undirected graph storage over the user set,
//!   with [`SocialNetwork::degrees_of_potential_interaction`] producing the
//!   score vector consumed by `igepa_core::InstanceBuilder`;
//! * [`generators`] — Erdős–Rényi (`pdeg` of Table I), group-overlap (the
//!   Meetup rule), Barabási–Albert and Watts–Strogatz models;
//! * [`metrics`] — density, degree histograms, clustering and connected
//!   components for workload reporting.
//!
//! ```
//! use igepa_graph::{generators, SocialNetwork, metrics::NetworkStats};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let g: SocialNetwork = generators::erdos_renyi(100, 0.1, &mut rng);
//! let interaction = g.degrees_of_potential_interaction();
//! assert_eq!(interaction.len(), 100);
//! assert!(NetworkStats::of(&g).density > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod centrality;
pub mod community;
pub mod generators;
pub mod graph;
pub mod interaction;
pub mod metrics;
pub mod paths;

pub use centrality::{
    betweenness_centrality, closeness_centrality, core_numbers, degree_centrality,
    eigenvector_centrality, pagerank, PageRankConfig,
};
pub use community::{greedy_modularity, label_propagation, modularity, Partition};
pub use generators::{
    barabasi_albert, erdos_renyi, from_group_memberships, random_edges, watts_strogatz,
};
pub use graph::SocialNetwork;
pub use interaction::InteractionMeasure;
pub use metrics::NetworkStats;
pub use paths::{
    average_path_length, bfs_distances, diameter, eccentricity, is_connected, reachable_count,
    UNREACHABLE,
};
