#pragma once

#include <cstddef>

/// \file radio.hpp
/// Radio/link-layer parameters for the unit-disk transmission model
/// (paper Section 1.2): an undirected link (u, v) exists iff the nodes are
/// within R_TX meters of one another.

namespace manet::net {

/// Transmission radius that keeps a constant-density random deployment
/// asymptotically connected. Gupta & Kumar (paper ref [3]): for n nodes in a
/// unit-area disk, connectivity w.h.p. requires pi r^2 >= (ln n + c)/n.
/// At constant density rho over area n/rho this becomes
///   R_TX = sqrt((ln n + c) / (pi * rho)),
/// i.e. Theta(sqrt(log n)) growth — the log factor the paper acknowledges and
/// then drops for compactness. \p margin is the additive constant c (> 0
/// makes the disconnection probability vanish; we default to 1.0 and verify
/// empirical connectivity in tests).
double connectivity_radius(std::size_t n_nodes, double density, double margin = 1.0);

/// Fixed radius chosen for a target mean degree d under constant density:
/// the expected number of neighbors in a disk of radius R is rho*pi*R^2 - 1,
/// so R = sqrt((d + 1) / (rho * pi)). Useful when experiments hold degree
/// (not connectivity probability) constant across |V|.
double radius_for_mean_degree(double target_degree, double density);

}  // namespace manet::net
