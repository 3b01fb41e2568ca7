#pragma once

#include "lp/simplex.hpp"

/// Test-only LP oracle. The library's engine is the sparse revised simplex
/// behind lp::solve (its internal dense tableau only finishes a cold solve
/// that fails numerically); this is the original dense
/// vector-of-rows tableau (Dantzig with a permanent Bland switch after a
/// stall, Bland tie-break in the ratio test — the same pivot rules), kept
/// as the independent implementation the parity and fuzz suites and the
/// BM_SimplexReference microbenchmark compare against.
namespace mrwsn::lp {

/// Cold two-phase solve with the dense reference tableau. Reports optimal,
/// infeasible or unbounded; no warm starts, no bases, no stats.
Solution solve_reference(const Problem& problem, double eps = 1e-9);

}  // namespace mrwsn::lp
