#pragma once

#include <cstddef>
#include <vector>

#include "graph/undirected.hpp"

/// Test-only clique oracle: the pre-bitset vector-based Bron–Kerbosch
/// (Tomita pivoting), kept as the independent implementation the parity
/// suite and the BM_BronKerboschReference microbenchmark compare
/// graph::maximal_cliques against.
namespace mrwsn::graph {

/// Same contract as maximal_cliques: every maximal clique, each sorted
/// ascending, clique order unspecified; throws InvariantError past `limit`.
std::vector<std::vector<Vertex>> maximal_cliques_reference(
    const UndirectedGraph& g, std::size_t limit = 1u << 22);

}  // namespace mrwsn::graph
