//! Classical graph algorithms used as substrates: traversal, components,
//! core/truss decompositions, clustering coefficients, and distances.

pub mod bfs;
pub mod clustering;
pub mod components;
pub mod cores;
pub mod distance;
pub mod truss;

pub use bfs::{bfs_distances, bfs_sample, multi_source_distances};
pub use clustering::{local_clustering_coefficient, local_clustering_coefficients};
pub use components::{component_count, connected_components};
pub use cores::{core_numbers, degeneracy, k_core_community, k_core_mask};
pub use distance::{diameter, eccentricity, query_distances};
pub use truss::{edge_support, truss_numbers};
