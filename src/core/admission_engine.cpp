#include "core/admission_engine.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <thread>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mrwsn::core {

namespace {

/// Demand slack when deciding admitted: matches the admission
/// controller's historical tolerance against LP round-off.
constexpr double kDemandSlack = 1e-6;
/// Background feasibility threshold on total airtime; matches
/// flows_feasible().
constexpr double kAirtimeTol = 1e-9;
/// Tier-0 cap: at most this many pool columns enter a master per pricing
/// round. The scored scan already orders candidates best-first, so the cap
/// bounds master growth (and LP size) without losing any column the duals
/// keep asking for — it simply arrives a round later.
constexpr std::size_t kTier0PerRound = 64;

/// Canonical (links, rates) key — the dedup signature shared by the
/// persistent pool and the per-query column sets.
std::vector<std::uint64_t> column_signature(const IndependentSet& set) {
  std::vector<std::uint64_t> key;
  key.reserve(set.links.size());
  for (std::size_t i = 0; i < set.links.size(); ++i)
    key.push_back((static_cast<std::uint64_t>(set.links[i]) << 16) |
                  static_cast<std::uint64_t>(set.rates[i]));
  return key;
}

/// Deterministic Tier-0 order: best score first, pool index as tiebreak.
bool better_candidate(const std::pair<double, std::size_t>& a,
                      const std::pair<double, std::size_t>& b) {
  return a.first > b.first || (a.first == b.first && a.second < b.second);
}

}  // namespace

AdmissionEngine::AdmissionEngine(const InterferenceModel& model,
                                 ColumnGenOptions options)
    : AdmissionEngine(model, AdmissionEngineOptions{options}) {}

AdmissionEngine::AdmissionEngine(const InterferenceModel& model,
                                 AdmissionEngineOptions options)
    : model_(&model),
      options_(options.colgen),
      shelf_capacity_(options.shelf_capacity),
      all_links_(model.num_links()),
      bg_row_of_(model.num_links(), -1),
      cols_of_link_(model.num_links()),
      bg_blocked_(model.num_links(), 0) {
  std::iota(all_links_.begin(), all_links_.end(), net::LinkId{0});
  bg_demand_.resize(model.num_links(), 0.0);
  // Epoch 0 — the empty background — is published from birth so
  // evaluate() never needs the commit lock, not even on the first call.
  auto snap = std::make_shared<Snapshot>();
  snap->demand = bg_demand_.share();
  published_ = std::move(snap);
}

std::pair<std::size_t, bool> AdmissionEngine::pool_add(IndependentSet set) {
  const auto [it, fresh] =
      pool_index_.try_emplace(column_signature(set), pool_.size());
  if (fresh) {
    const std::size_t idx = pool_.size();
    for (const net::LinkId link : set.links)
      cols_of_link_[link].push_back(static_cast<std::uint32_t>(idx));
    pool_.push_back(std::move(set));
    master_var_of_pool_.push_back(-1);
    pool_stamp_.push_back(0);
    ++pool_live_;
  }
  return {it->second, fresh};
}

void AdmissionEngine::seed_singleton(net::LinkId link) {
  const auto rate = model_->max_rate_alone(link);
  if (!rate) return;
  IndependentSet set;
  set.links = {link};
  set.rates = {*rate};
  set.mbps = {model_->rate_table()[*rate].mbps};
  const auto [idx, fresh] = pool_add(std::move(set));
  (void)fresh;
  if (master_var_of_pool_[idx] >= 0) return;
  master_var_of_pool_[idx] = static_cast<int>(bg_master_cols_.size());
  bg_master_cols_.push_back(idx);
}

void AdmissionEngine::update_blocked(net::LinkId link) {
  const char blocked =
      bg_demand_[link] > 0.0 && !model_->max_rate_alone(link) ? 1 : 0;
  if (blocked != bg_blocked_[link]) {
    bg_blocked_[link] = blocked;
    if (blocked)
      ++bg_blocked_count_;
    else
      --bg_blocked_count_;
  }
  bg_impossible_ = bg_blocked_count_ > 0;
}

void AdmissionEngine::add_background(LinkFlow flow) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  add_background_locked(std::move(flow));
}

void AdmissionEngine::add_background_locked(LinkFlow flow) {
  for (const net::LinkId link : flow.links) {
    MRWSN_REQUIRE(link < bg_demand_.size(),
                  "background flow references an unknown link");
    if (bg_row_of_[link] < 0) {
      bg_row_of_[link] = static_cast<int>(bg_links_.size());
      bg_links_.push_back(link);
      // The singleton column of a brand-new row enters the background
      // master immediately: it guarantees the master stays feasible, and
      // its only nonzero sits on the new row whose extended dual is zero,
      // so it cannot break the dual feasibility the row re-solve needs.
      seed_singleton(link);
    }
    bg_demand_.mutate(link) += flow.demand_mbps;
    update_blocked(link);
  }
  background_.push_back(std::move(flow));
  bg_dirty_ = true;
  publish_stale_ = true;
  ++stats_.commits;
}

std::size_t AdmissionEngine::preload_columns(
    std::span<const IndependentSet> columns) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  std::size_t added = 0;
  for (const IndependentSet& candidate : columns) {
    if (candidate.links.empty()) continue;
    MRWSN_REQUIRE(candidate.links.size() == candidate.rates.size(),
                  "preloaded column needs one rate per link");
    MRWSN_REQUIRE(std::is_sorted(candidate.links.begin(),
                                 candidate.links.end()),
                  "preloaded column links must be sorted ascending");
    if (!model_->supports(candidate.links, candidate.rates)) continue;
    IndependentSet set;
    set.links = candidate.links;
    set.rates = candidate.rates;
    set.mbps.reserve(set.rates.size());
    for (const phy::RateIndex rate : set.rates)
      set.mbps.push_back(model_->rate_table()[rate].mbps);
    if (pool_add(std::move(set)).second) ++added;
  }
  if (added > 0) {
    stats_.pool_columns = pool_live_;
    publish_stale_ = true;
  }
  return added;
}

void AdmissionEngine::clear() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  clear_locked();
}

void AdmissionEngine::clear_locked() {
  background_.clear();
  const std::size_t num_links = bg_demand_.size();
  bg_demand_.clear();
  bg_demand_.resize(num_links, 0.0);
  bg_links_.clear();
  std::fill(bg_row_of_.begin(), bg_row_of_.end(), -1);
  bg_master_cols_.clear();
  std::fill(master_var_of_pool_.begin(), master_var_of_pool_.end(), -1);
  bg_master_ = lp::Problem(lp::Objective::kMinimize);
  bg_synced_cols_ = 0;
  bg_synced_rows_ = 0;
  bg_basis_.clear();
  bg_basis_snap_.reset();
  bg_context_.reset();
  bg_airtime_ = 0.0;
  bg_feasible_ = true;
  bg_dirty_ = false;
  bg_impossible_ = false;
  std::fill(bg_blocked_.begin(), bg_blocked_.end(), 0);
  bg_blocked_count_ = 0;
  publish_stale_ = true;
}

std::size_t AdmissionEngine::extend_background_master(
    const std::vector<double>& weights, double floor) {
  // Tier-0 pricing by scan: score every live out-of-master pool column
  // whose links all sit on background rows, and fold in the improving
  // ones (score > floor), best first, capped per round. Unlike the old
  // fold-everything extension this keeps the master lean — a degenerate
  // preloaded pool no longer bloats the LP (or stalls its convergence),
  // because a column only enters when the duals actually pay for it.
  std::vector<std::pair<double, std::size_t>> improving;
  pool_.for_each([&](std::size_t idx, const IndependentSet& set) {
    if (set.links.empty()) return;              // tombstoned by churn
    if (master_var_of_pool_[idx] >= 0) return;  // already in the master
    double score = 0.0;
    bool fits = true;
    for (std::size_t k = 0; k < set.links.size(); ++k) {
      if (bg_row_of_[set.links[k]] < 0) {
        fits = false;
        break;
      }
      score += weights[set.links[k]] * set.mbps[k];
    }
    if (fits && score > floor) improving.emplace_back(score, idx);
  });
  const std::size_t take = std::min(kTier0PerRound, improving.size());
  std::partial_sort(improving.begin(),
                    improving.begin() + static_cast<std::ptrdiff_t>(take),
                    improving.end(), better_candidate);
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t idx = improving[i].second;
    master_var_of_pool_[idx] = static_cast<int>(bg_master_cols_.size());
    bg_master_cols_.push_back(idx);
  }
  return take;
}

void AdmissionEngine::sync_background_master() {
  // Minimize total airtime subject to delivering every background demand.
  // Rows are the background links in first-seen order and columns follow
  // bg_master_cols_ order — both append-only, which is what keeps a saved
  // basis (and its factorization) meaningful across commits, and what lets
  // the master grow in place instead of being rebuilt every round.
  //
  // A column only enters the master once every one of its links has a row,
  // so a pre-sync column can never touch a post-sync row: new columns
  // extend old rows via append_term and contribute the initial terms of
  // the new rows, never the other way around.
  //
  // A kRetiredColumn slot (churn retired the column before it was ever
  // materialized) still gets its variable — a stillborn zero column at
  // cost 1, which a minimization can never price in — so the VarId <->
  // master-position bijection survives retirement.
  std::vector<std::vector<std::pair<lp::VarId, double>>> new_rows(
      bg_links_.size() - bg_synced_rows_);
  for (std::size_t i = bg_synced_cols_; i < bg_master_cols_.size(); ++i) {
    const lp::VarId id = bg_master_.add_variable(1.0);
    const std::size_t pool_idx = bg_master_cols_[i];
    if (pool_idx == kRetiredColumn) continue;
    const IndependentSet& set = pool_[pool_idx];
    for (std::size_t k = 0; k < set.links.size(); ++k) {
      const std::size_t r = static_cast<std::size_t>(bg_row_of_[set.links[k]]);
      if (r < bg_synced_rows_)
        bg_master_.append_term(r, id, set.mbps[k]);
      else
        new_rows[r - bg_synced_rows_].emplace_back(id, set.mbps[k]);
    }
  }
  bg_synced_cols_ = bg_master_cols_.size();
  for (const auto& terms : new_rows)
    bg_master_.add_constraint(terms, lp::Sense::kGreaterEqual, 0.0);
  bg_synced_rows_ = bg_links_.size();
  for (std::size_t r = 0; r < bg_links_.size(); ++r)
    bg_master_.set_rhs(r, bg_demand_[bg_links_[r]]);
}

void AdmissionEngine::refresh_background() {
  if (!bg_dirty_) return;
  bg_dirty_ = false;
  ++stats_.background_solves;
  if (bg_impossible_) {
    bg_feasible_ = false;
    bg_airtime_ = std::numeric_limits<double>::infinity();
    bg_basis_.clear();
    bg_basis_snap_.reset();
    bg_context_.reset();
    return;
  }
  if (bg_links_.empty()) {
    bg_feasible_ = true;
    bg_airtime_ = 0.0;
    bg_basis_.clear();
    bg_basis_snap_.reset();
    bg_context_.reset();
    return;
  }

  // Pricing runs over the full link set with zero weight off the
  // background rows. Both oracles drop zero-weight candidates before
  // searching, so the result (and its rate vector) is identical to
  // pricing over the restricted universe — but the model's pricing
  // context is built for `all_links_` once and reused forever instead of
  // being rebuilt for every distinct background link set.
  std::vector<double> weights(all_links_.size(), 0.0);

  bool first = true;
  bool converged = false;
  lp::Solution sol;
  for (std::size_t round = 0; round <= options_.max_rounds; ++round) {
    sync_background_master();
    const lp::Problem& master = bg_master_;
    lp::SolveOptions solve_options;
    solve_options.context = &bg_context_;
    lp::SolveStats lp_stats;
    solve_options.stats = &lp_stats;
    if (!bg_basis_.empty()) {
      solve_options.warm_start = &bg_basis_;
      // Only the first master after a commit has changed rows/rhs; later
      // rounds append columns and chain primal warm starts as usual. A
      // genuine re-solve lands within a handful of dual pivots; the cap
      // keeps a degenerate dual stall from costing more than the cold
      // solve it is trying to avoid.
      solve_options.dual_resolve = first;
      solve_options.dual_pivot_cap = master.num_constraints() + 64;
    }
    sol = lp::solve(master, solve_options);
    stats_.lp_pivots += lp_stats.pivots;
    if (first && !bg_basis_.empty()) {
      if (lp_stats.dual_phase &&
          lp_stats.fallback_reason == lp::Fallback::kNone) {
        ++stats_.dual_resolves;
      } else {
        ++stats_.dual_fallbacks;
        stats_.last_fallback = lp_stats.fallback_reason;
      }
    }
    first = false;
    if (!sol.optimal()) break;  // master infeasible cannot happen: every
                                // demanded row holds its singleton column
    bg_basis_ = sol.basis;

    std::fill(weights.begin(), weights.end(), 0.0);
    for (std::size_t r = 0; r < bg_links_.size(); ++r)
      weights[bg_links_[r]] = std::max(0.0, sol.dual(r));
    const double floor = 1.0 + options_.reduced_cost_tol;
    ++stats_.pricing_rounds;

    // Tier 0: scored pool re-seeding against this round's duals. Columns
    // priced by queries (or shelved by readers) since the last refresh
    // enter here — but only when they actually improve this master.
    const std::size_t seeded = extend_background_master(weights, floor);
    if (seeded > 0) {
      stats_.tier0_columns += seeded;
      if (bg_master_cols_.size() > options_.max_columns) break;
      continue;
    }

    // Fold `set` into pool + background master; true when the master
    // gained the column.
    const auto fold_in = [&](const IndependentSet& set) {
      const auto [idx, was_fresh] = pool_add(set);
      (void)was_fresh;
      if (master_var_of_pool_[idx] >= 0) return false;
      master_var_of_pool_[idx] = static_cast<int>(bg_master_cols_.size());
      bg_master_cols_.push_back(idx);
      return true;
    };

    // Tier 1: heuristic pricing. Heuristic duplicates certify nothing —
    // only a dry exact round may declare convergence.
    if (options_.pricing == PricingMode::kTiered &&
        options_.heuristic_starts > 0) {
      HeuristicPricingParams params;
      params.starts = options_.heuristic_starts;
      const MaxWeightSetResult h = model_->heuristic_max_weight_independent_set(
          all_links_, weights, floor, params);
      if (h.found()) {
        std::size_t added = fold_in(h.set) ? 1 : 0;
        for (const IndependentSet& extra : h.extras)
          if (fold_in(extra)) ++added;
        if (added > 0) {
          stats_.heuristic_columns += added;
          if (bg_master_cols_.size() > options_.max_columns) break;
          continue;
        }
      }
    }

    // Tier 2 / exact-only: the certificate tier.
    ++stats_.exact_rounds;
    const MaxWeightSetResult priced =
        model_->max_weight_independent_set(all_links_, weights, floor);
    if (!priced.found()) {
      converged = true;
      break;
    }
    const auto [idx, fresh] = pool_add(priced.set);
    if (!fresh) ++stats_.pool_hits;
    if (master_var_of_pool_[idx] >= 0) {
      // The oracle re-priced a master column: its reduced cost sits at the
      // tolerance boundary. The master is optimal for all purposes.
      converged = true;
      break;
    }
    master_var_of_pool_[idx] = static_cast<int>(bg_master_cols_.size());
    bg_master_cols_.push_back(idx);
    // The oracle's runner-up extras are feasible sets over the same rows
    // (zero weight outside the row set keeps their links inside it);
    // folding them in now saves later solve/price rounds.
    for (const IndependentSet& extra : priced.extras) fold_in(extra);
    if (bg_master_cols_.size() > options_.max_columns) break;
  }
  stats_.pool_columns = pool_live_;
  bg_airtime_ = sol.optimal() ? sol.objective
                              : std::numeric_limits<double>::infinity();
  bg_feasible_ = converged && bg_airtime_ <= 1.0 + kAirtimeTol;
  // Freeze the refreshed basis once; every publish until the next
  // re-solve aliases this copy instead of copying the basis again.
  bg_basis_snap_ = std::make_shared<const lp::Basis>(bg_basis_);
}

double AdmissionEngine::background_airtime() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  return bg_airtime_;
}

bool AdmissionEngine::background_feasible() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  return bg_feasible_;
}

AdmissionAnswer AdmissionEngine::solve_query(
    std::span<const net::LinkId> path, double demand_mbps,
    const BackgroundView& bg,
    std::vector<IndependentSet>* fresh_columns,
    std::size_t* pool_hits) const {
  MRWSN_REQUIRE(!path.empty(), "admission query needs a non-empty path");
  AdmissionAnswer answer;
  if (!bg.feasible) return answer;  // Eq. 6 infeasible: nothing available
  answer.background_feasible = true;

  const LinkSeg& bg_links = *bg.links;
  const DemandSeg& bg_demand = *bg.demand;
  const IndexSeg& master_cols = *bg.master_cols;
  const PoolSeg& pool = *bg.pool;

  // Canonical universe: background links plus the query path.
  std::vector<net::LinkId> universe(bg_links.begin(), bg_links.end());
  universe.insert(universe.end(), path.begin(), path.end());
  std::sort(universe.begin(), universe.end());
  universe.erase(std::unique(universe.begin(), universe.end()),
                 universe.end());
  std::vector<int> position(bg_demand.size(), -1);
  for (std::size_t p = 0; p < universe.size(); ++p) {
    MRWSN_REQUIRE(universe[p] < bg_demand.size(),
                  "admission query references an unknown link");
    position[universe[p]] = static_cast<int>(p);
  }
  std::vector<char> on_path(bg_demand.size(), 0);
  for (const net::LinkId link : path) on_path[link] = 1;

  // The query's column set, seeded LEAN: the background master's live
  // columns (their links all sit on background rows ⊂ universe, and they
  // carry the warm basis), singletons for universe links those leave
  // uncovered, then per-round Tier-0 improving pool columns and whatever
  // pricing generates. Seeding the master instead of every fitting pool
  // column is what makes the query LP track the active basis size, not
  // the pool size. Pointers stay valid because `generated` never
  // reallocates (reserved to its worst case up front) and pool chunks are
  // immutable for the duration of the solve. `seen` holds every column's
  // canonical signature so later oracle output dedups in one set lookup.
  std::vector<const IndependentSet*> columns;
  std::set<Signature> seen;
  std::vector<IndependentSet> generated;
  // Worst case: one singleton per universe link, plus per pricing round
  // either the heuristic winner with up to four runner-up extras or the
  // exact best set with up to three.
  generated.reserve(universe.size() + 6 * (options_.max_rounds + 1));
  std::vector<char> covered(universe.size(), 0);
  std::vector<char> pool_used(pool.size(), 0);
  // Master position -> query column slot, for the warm-basis remap.
  std::vector<int> col_of_master_pos(master_cols.size(), -1);

  const auto add_pool_column = [&](std::size_t idx) {
    const IndependentSet& set = pool[idx];
    pool_used[idx] = 1;
    const int slot = static_cast<int>(columns.size());
    columns.push_back(&set);
    seen.insert(column_signature(set));
    if (set.size() == 1 && position[set.links[0]] >= 0)
      covered[static_cast<std::size_t>(position[set.links[0]])] = 1;
    return slot;
  };

  // Seed exactly the basis-referenced master columns: those reproduce
  // the background's optimal point (the warm start below), while the
  // master's nonbasic columns — and the rest of the pool — stay behind
  // the per-round Tier-0 scan and only enter if this query's own duals
  // ask for them. The query LP therefore starts at basis size, not
  // master or pool size.
  const bool basis_usable =
      bg.basis && bg.basis->size() == bg_links.size() && !bg.basis->empty();
  if (basis_usable) {
    for (const lp::BasisEntry& entry : *bg.basis) {
      if (entry.kind != lp::BasisEntry::Kind::kStructural) continue;
      const std::size_t pos = static_cast<std::size_t>(entry.index);
      if (pos >= master_cols.size()) continue;
      const std::size_t pool_idx = master_cols[pos];
      if (pool_idx == kRetiredColumn || pool[pool_idx].links.empty())
        continue;  // retired under churn; the basis repair fell to slack
      if (col_of_master_pos[pos] < 0)
        col_of_master_pos[pos] = add_pool_column(pool_idx);
    }
  }
  answer.tier0_columns = columns.size();
  for (std::size_t p = 0; p < universe.size(); ++p) {
    if (covered[p]) continue;
    const auto rate = model_->max_rate_alone(universe[p]);
    if (!rate) continue;
    IndependentSet set;
    set.links = {universe[p]};
    set.rates = {*rate};
    set.mbps = {model_->rate_table()[*rate].mbps};
    seen.insert(column_signature(set));
    generated.push_back(std::move(set));
    columns.push_back(&generated.back());
  }

  // Seed the first solve with a primal-feasible basis derived from the
  // background master's optimum: the background's basic columns stay
  // basic in their (remapped) rows, every other row starts on its own
  // slack, and f is nonbasic at zero. That point delivers the background
  // demands within unit airtime by construction, so the solver skips
  // phase 1 outright and phase 2 only has to drive f up — the bulk of a
  // cold two-phase solve disappears from every query.
  lp::Basis basis;
  if (basis_usable) {
    basis.assign(1 + universe.size(), lp::BasisEntry{});
    basis[0] = {lp::BasisEntry::Kind::kSlack, 0};
    for (std::size_t p = 0; p < universe.size(); ++p)
      basis[1 + p] = {lp::BasisEntry::Kind::kSlack, static_cast<int>(1 + p)};
    for (std::size_t r = 0; r < bg_links.size(); ++r) {
      const int q = 1 + position[bg_links[r]];
      const lp::BasisEntry& entry = (*bg.basis)[r];
      if (entry.kind == lp::BasisEntry::Kind::kSlack) {
        // entry.index is the background row whose slack is basic — not
        // necessarily row r, the entry's position — so the slack's row is
        // remapped through the same link -> query-row translation.
        const std::size_t row = static_cast<std::size_t>(entry.index);
        if (row >= bg_links.size()) {
          basis.clear();
          break;
        }
        basis[static_cast<std::size_t>(q)] = {
            lp::BasisEntry::Kind::kSlack, 1 + position[bg_links[row]]};
        continue;
      }
      const std::size_t pos = static_cast<std::size_t>(entry.index);
      const int column =
          pos < col_of_master_pos.size() ? col_of_master_pos[pos] : -1;
      if (column < 0) {  // the basic column did not survive into the query
        basis.clear();
        break;
      }
      basis[static_cast<std::size_t>(q)] = {lp::BasisEntry::Kind::kStructural,
                                            1 + column};
    }
  }
  lp::RevisedContext context;
  lp::Solution sol;
  // Full-universe pricing weights (see refresh_background): zero outside
  // the query universe, so priced sets only ever contain universe links.
  std::vector<double> weights(all_links_.size(), 0.0);

  // Build the restricted master once; pricing rounds append their column
  // in place (the rows' sorted-sparse invariant holds because every new
  // λ's id exceeds everything already in its rows).
  lp::Problem master(lp::Objective::kMaximize);
  const lp::VarId f = master.add_variable(1.0, "f");
  std::vector<lp::VarId> lambda;
  lambda.reserve(columns.size());
  for (std::size_t i = 0; i < columns.size(); ++i)
    lambda.push_back(master.add_variable(0.0));
  {
    std::vector<std::pair<lp::VarId, double>> share;
    share.reserve(columns.size());
    for (const lp::VarId id : lambda) share.emplace_back(id, 1.0);
    master.add_constraint(share, lp::Sense::kLessEqual, 1.0);
    // f is VarId 0 and the λ ids ascend, so seeding f first keeps every
    // row pre-sorted — add_constraint's linear canonicalization path.
    std::vector<std::vector<std::pair<lp::VarId, double>>> rows(
        universe.size());
    for (std::size_t p = 0; p < universe.size(); ++p)
      if (on_path[universe[p]]) rows[p].emplace_back(f, -1.0);
    for (std::size_t i = 0; i < columns.size(); ++i) {
      const IndependentSet& set = *columns[i];
      for (std::size_t k = 0; k < set.links.size(); ++k)
        rows[static_cast<std::size_t>(position[set.links[k]])].emplace_back(
            lambda[i], set.mbps[k]);
    }
    for (std::size_t p = 0; p < universe.size(); ++p)
      master.add_constraint(rows[p], lp::Sense::kGreaterEqual,
                            bg_demand[universe[p]]);
  }

  // Append one column to the master LP in place.
  const auto append_master_column = [&](const IndependentSet& added) {
    const lp::VarId id = master.add_variable(0.0);
    master.append_term(0, id, 1.0);
    for (std::size_t k = 0; k < added.links.size(); ++k)
      master.append_term(
          1 + static_cast<std::size_t>(position[added.links[k]]), id,
          added.mbps[k]);
  };

  for (std::size_t round = 0; round <= options_.max_rounds; ++round) {
    lp::SolveOptions solve_options;
    solve_options.context = &context;
    if (!basis.empty()) solve_options.warm_start = &basis;
    lp::SolveStats lp_stats;
    solve_options.stats = &lp_stats;
    sol = lp::solve(master, solve_options);
    answer.lp_pivots += lp_stats.pivots;
    if (!sol.optimal()) break;
    basis = sol.basis;

    // Phase-B pricing: weights from the link-row duals (maximize => the
    // improving direction is -dual), floor from the airtime row's dual.
    std::fill(weights.begin(), weights.end(), 0.0);
    for (std::size_t p = 0; p < universe.size(); ++p)
      weights[universe[p]] = std::max(0.0, -sol.dual(1 + p));
    const double floor =
        std::max(0.0, sol.dual(0)) + options_.reduced_cost_tol;
    ++answer.pricing_rounds;

    // Tier 0: scored pool scan against this round's duals — the pool
    // seeds the master on demand instead of wholesale, so a query's LP
    // carries only the columns its own duals asked for.
    {
      std::vector<std::pair<double, std::size_t>> improving;
      pool.for_each([&](std::size_t idx, const IndependentSet& set) {
        if (pool_used[idx] || set.links.empty()) return;
        double score = 0.0;
        bool fits = true;
        for (std::size_t k = 0; k < set.links.size(); ++k) {
          if (position[set.links[k]] < 0) {
            fits = false;
            break;
          }
          score += weights[set.links[k]] * set.mbps[k];
        }
        if (fits && score > floor) improving.emplace_back(score, idx);
      });
      const std::size_t take = std::min(kTier0PerRound, improving.size());
      std::partial_sort(improving.begin(),
                        improving.begin() + static_cast<std::ptrdiff_t>(take),
                        improving.end(), better_candidate);
      for (std::size_t i = 0; i < take; ++i)
        append_master_column(*columns[static_cast<std::size_t>(
            add_pool_column(improving[i].second))]);
      if (take > 0) {
        answer.tier0_columns += take;
        if (columns.size() > options_.max_columns) break;
        continue;
      }
    }

    // Signature-set dedup against this query's columns; true when the
    // master gained the column.
    const auto add_column = [&](const IndependentSet& set) {
      if (!seen.insert(column_signature(set)).second) return false;
      generated.push_back(set);
      columns.push_back(&generated.back());
      append_master_column(generated.back());
      return true;
    };

    // Tier 1: heuristic pricing. A heuristic round that only reproduces
    // existing columns certifies nothing and falls through to the exact
    // tier.
    if (options_.pricing == PricingMode::kTiered &&
        options_.heuristic_starts > 0) {
      HeuristicPricingParams params;
      params.starts = options_.heuristic_starts;
      const MaxWeightSetResult h = model_->heuristic_max_weight_independent_set(
          all_links_, weights, floor, params);
      if (h.found()) {
        std::size_t added = add_column(h.set) ? 1 : 0;
        for (const IndependentSet& extra : h.extras)
          if (add_column(extra)) ++added;
        if (added > 0) {
          answer.heuristic_columns += added;
          if (columns.size() > options_.max_columns) break;
          continue;
        }
      }
    }

    // Tier 2 / exact-only: the certificate tier.
    ++answer.exact_rounds;
    const MaxWeightSetResult priced =
        model_->max_weight_independent_set(all_links_, weights, floor);
    if (!priced.found()) {
      answer.converged = true;
      break;
    }
    // Re-pricing an existing column means the master already sits at the
    // tolerance boundary.
    if (seen.count(column_signature(priced.set)) != 0) {
      ++*pool_hits;
      answer.converged = true;
      break;
    }
    add_column(priced.set);
    // Runner-up extras from the same search: more columns per oracle call
    // means fewer solve/price rounds to converge, at no search cost.
    for (const IndependentSet& extra : priced.extras) add_column(extra);
    if (columns.size() > options_.max_columns) break;
  }

  answer.master_columns = columns.size();
  if (sol.optimal()) answer.available_mbps = std::max(0.0, sol.objective);
  if (!sol.optimal()) answer.converged = false;
  answer.admitted = answer.background_feasible &&
                    answer.available_mbps + kDemandSlack >= demand_mbps;
  *fresh_columns = std::move(generated);
  return answer;
}

AdmissionEngine::BackgroundView AdmissionEngine::engine_view() const {
  BackgroundView view;
  view.feasible = bg_feasible_;
  view.links = &bg_links_;
  view.demand = &bg_demand_;
  view.basis = &bg_basis_;
  view.master_cols = &bg_master_cols_;
  view.pool = &pool_;
  return view;
}

AdmissionEngine::BackgroundView AdmissionEngine::view_of(const Snapshot& snap) {
  BackgroundView view;
  view.feasible = snap.feasible;
  view.links = &snap.links;
  view.demand = &snap.demand;
  view.basis = snap.basis ? snap.basis.get() : nullptr;
  view.master_cols = &snap.master_cols;
  view.pool = &snap.pool;
  return view;
}

AdmissionAnswer AdmissionEngine::query_locked(
    std::span<const net::LinkId> path, double demand_mbps) {
  refresh_background();
  std::vector<IndependentSet> fresh;
  std::size_t hits = 0;
  AdmissionAnswer answer =
      solve_query(path, demand_mbps, engine_view(), &fresh, &hits);
  for (IndependentSet& set : fresh) {
    const auto [idx, inserted] = pool_add(std::move(set));
    (void)idx;
    if (!inserted) ++hits;
  }
  ++stats_.queries;
  stats_.pricing_rounds += answer.pricing_rounds;
  stats_.lp_pivots += answer.lp_pivots;
  stats_.pool_hits += hits;
  stats_.tier0_columns += answer.tier0_columns;
  stats_.heuristic_columns += answer.heuristic_columns;
  stats_.exact_rounds += answer.exact_rounds;
  stats_.pool_columns = pool_live_;
  return answer;
}

AdmissionAnswer AdmissionEngine::query(std::span<const net::LinkId> path,
                                       double demand_mbps) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  return query_locked(path, demand_mbps);
}

AdmissionAnswer AdmissionEngine::admit(std::span<const net::LinkId> path,
                                       double demand_mbps) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  AdmissionAnswer answer = query_locked(path, demand_mbps);
  if (answer.admitted)
    add_background_locked(LinkFlow{{path.begin(), path.end()}, demand_mbps});
  return answer;
}

std::vector<AdmissionAnswer> AdmissionEngine::query_batch(
    std::span<const AdmissionQuery> queries) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  // Workers read a fixed view of the engine state and collect new columns
  // locally; the merge happens after the join. Answers are therefore
  // deterministic and independent of the thread count.
  const BackgroundView view = engine_view();
  std::vector<AdmissionAnswer> answers(queries.size());
  std::vector<std::vector<IndependentSet>> fresh(queries.size());
  std::vector<std::size_t> hits(queries.size(), 0);
  util::parallel_for(queries.size(), [&](std::size_t i) {
    answers[i] = solve_query(queries[i].path, queries[i].demand_mbps, view,
                             &fresh[i], &hits[i]);
  });
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (IndependentSet& set : fresh[i]) {
      const auto [idx, inserted] = pool_add(std::move(set));
      (void)idx;
      if (!inserted) ++hits[i];
    }
    stats_.pricing_rounds += answers[i].pricing_rounds;
    stats_.lp_pivots += answers[i].lp_pivots;
    stats_.pool_hits += hits[i];
    stats_.tier0_columns += answers[i].tier0_columns;
    stats_.heuristic_columns += answers[i].heuristic_columns;
    stats_.exact_rounds += answers[i].exact_rounds;
  }
  stats_.queries += queries.size();
  stats_.pool_columns = pool_live_;
  return answers;
}

// --- Concurrent service surface -------------------------------------------

AdmissionEngine::SnapshotPtr AdmissionEngine::published() const {
  const std::lock_guard<std::mutex> lock(snap_mu_);
  return published_;
}

void AdmissionEngine::publish_locked() {
  // O(Δ) publication: every SegVector share() is a spine of chunk-pointer
  // copies — epoch N+1 aliases every chunk this commit/churn event did
  // not touch from epoch N — and the basis is aliased from the frozen
  // copy the last background re-solve left behind. Nothing here scales
  // with the background or pool size beyond chunk-count pointer copies.
  auto snap = std::make_shared<Snapshot>();
  snap->epoch = ++epoch_counter_;
  snap->feasible = bg_feasible_;
  snap->airtime = bg_airtime_;
  snap->background = background_.share();
  snap->links = bg_links_.share();
  snap->demand = bg_demand_.share();
  snap->basis = bg_basis_snap_;
  snap->master_cols = bg_master_cols_.share();
  snap->pool = pool_.share();
  publish_stale_ = false;
  const std::lock_guard<std::mutex> lock(snap_mu_);
  published_ = std::move(snap);
}

std::size_t AdmissionEngine::merge_shelved_locked() {
  std::vector<IndependentSet> shelved;
  {
    const std::lock_guard<std::mutex> lock(shelf_mu_);
    shelved.swap(shelf_);
  }
  std::size_t merged = 0;
  for (IndependentSet& set : shelved) {
    // A shelved column may have been priced on a pre-churn epoch whose
    // topology no longer supports it; the pool only admits live columns.
    if (!model_->supports(set.links, set.rates)) continue;
    if (pool_add(std::move(set)).second) ++merged;
  }
  if (merged > 0) stats_.pool_columns = pool_live_;
  return merged;
}

AdmissionEngine::SnapshotPtr AdmissionEngine::snapshot() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  refresh_background();
  if (merge_shelved_locked() > 0 || publish_stale_ || epoch_counter_ == 0)
    publish_locked();
  return published();
}

AdmissionAnswer AdmissionEngine::evaluate(std::span<const net::LinkId> path,
                                          double demand_mbps) {
  // One shared_ptr load pins one consistent epoch for the whole solve:
  // a commit publishing mid-flight retires the snapshot, not this read.
  std::vector<IndependentSet> fresh;
  std::size_t hits = 0;
  AdmissionAnswer answer;
  SnapshotPtr snap;
  {
    // Shared against apply_topology_delta's mutation window: the snapshot
    // is immutable, but the solve reads the borrowed model's kernels and
    // caches, which that window patches in place. Loading the snapshot
    // inside the same hold is what pairs it with the model it was built
    // over — churn repairs publish before releasing the write side, so a
    // reader never solves a pre-churn epoch against a post-churn model.
    // Back off while a repair is waiting: rwlocks prefer readers, and a
    // steady evaluate() stream must not starve the churn path.
    while (churn_pending_.load(std::memory_order_acquire))
      std::this_thread::yield();
    const std::shared_lock<std::shared_mutex> topo(topo_mu_);
    {
      const std::lock_guard<std::mutex> lock(snap_mu_);
      snap = published_;
    }
    answer = solve_query(path, demand_mbps, view_of(*snap), &fresh, &hits);
  }
  answer.epoch = snap->epoch;
  if (!fresh.empty()) {
    // Shelve reader-priced columns for the next commit to fold into the
    // persistent pool; bounded (AdmissionEngineOptions::shelf_capacity)
    // so a pathological query storm cannot grow the shelf without a
    // commit ever draining it. Overflow is dropped and counted.
    std::size_t taken = 0;
    std::size_t dropped = 0;
    {
      const std::lock_guard<std::mutex> lock(shelf_mu_);
      for (IndependentSet& set : fresh) {
        if (shelf_.size() >= shelf_capacity_) {
          ++dropped;
          continue;
        }
        shelf_.push_back(std::move(set));
        ++taken;
      }
    }
    read_shelved_.fetch_add(taken, std::memory_order_relaxed);
    if (dropped > 0)
      read_shelf_dropped_.fetch_add(dropped, std::memory_order_relaxed);
  }
  read_queries_.fetch_add(1, std::memory_order_relaxed);
  read_rounds_.fetch_add(answer.pricing_rounds, std::memory_order_relaxed);
  read_pivots_.fetch_add(answer.lp_pivots, std::memory_order_relaxed);
  return answer;
}

AdmissionAnswer AdmissionEngine::commit(std::span<const net::LinkId> path,
                                        double demand_mbps) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  merge_shelved_locked();
  AdmissionAnswer answer = query_locked(path, demand_mbps);
  if (answer.admitted) {
    add_background_locked(LinkFlow{{path.begin(), path.end()}, demand_mbps});
    // Publish with the background master already re-solved so readers on
    // the new epoch inherit a warm basis, not a dirty flag they cannot
    // refresh.
    refresh_background();
  }
  // Every commit publishes — even a rejection, whose epoch differs only by
  // merged shelf columns. The k-th commit/evict therefore publishes epoch
  // k+1 (after the initial snapshot() publication), which is what lets the
  // replay harness verify reader answers against a sequential re-execution
  // of the same writer prefix.
  publish_locked();
  answer.epoch = epoch_counter_;
  return answer;
}

std::uint64_t AdmissionEngine::apply_topology_delta(
    const std::function<ModelRepair()>& mutate) {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  // Merge first: anything shelved so far was priced on the pre-mutation
  // model and still validates against it; later shelvings revalidate at
  // their own merge.
  merge_shelved_locked();
  // The write hold spans mutation through publication so a reader always
  // pairs a published snapshot with the model it was repaired against.
  churn_pending_.store(true, std::memory_order_release);
  const std::unique_lock<std::shared_mutex> topo(topo_mu_);
  churn_pending_.store(false, std::memory_order_release);
  const ModelRepair repair = mutate();
  repair_engine_locked(repair);
  refresh_background();
  publish_locked();
  return epoch_counter_;
}

void AdmissionEngine::retire_pool_column(std::size_t idx) {
  const IndependentSet& column = pool_[idx];
  pool_index_.erase(column_signature(column));
  const int pos = master_var_of_pool_[idx];
  if (pos >= 0) {
    master_var_of_pool_[idx] = -1;
    if (static_cast<std::size_t>(pos) < bg_synced_cols_) {
      // Materialized: zero the column out of its rows in place. The LP
      // variable survives as an inert placeholder — a zero column at cost
      // 1 can never price into the minimization — so every other master
      // position (and therefore the saved basis and its factorization,
      // when the retiree was nonbasic) stays exactly as it was.
      for (const net::LinkId link : column.links)
        bg_master_.remove_term(static_cast<std::size_t>(bg_row_of_[link]),
                               pos);
      // A retired basic column hands its row back to that row's slack.
      // The patched basis need not stay feasible — the next re-solve's
      // dual audit (or the primal warm-start check) falls back cold when
      // the churn cut too deep; results never change.
      for (std::size_t r = 0; r < bg_basis_.size(); ++r) {
        lp::BasisEntry& entry = bg_basis_[r];
        if (entry.kind == lp::BasisEntry::Kind::kStructural &&
            entry.index == pos)
          entry = {lp::BasisEntry::Kind::kSlack, static_cast<int>(r)};
      }
    }
    bg_master_cols_.set(static_cast<std::size_t>(pos), kRetiredColumn);
  }
  pool_.set(idx, IndependentSet{});  // tombstone; slot index stays stable
  --pool_live_;
}

void AdmissionEngine::repair_engine_locked(const ModelRepair& repair) {
  const std::size_t num_links = model_->num_links();
  MRWSN_REQUIRE(num_links >= bg_demand_.size(),
                "churn must keep the link id space append-only");
  if (num_links > all_links_.size()) {
    const std::size_t old_size = all_links_.size();
    all_links_.resize(num_links);
    std::iota(all_links_.begin() + static_cast<std::ptrdiff_t>(old_size),
              all_links_.end(), static_cast<net::LinkId>(old_size));
    bg_demand_.resize(num_links, 0.0);
    bg_row_of_.resize(num_links, -1);
    bg_blocked_.resize(num_links, 0);
    cols_of_link_.resize(num_links);
  }

  // Revalidate-or-retire ONLY the columns of affected links — the
  // inverted index makes churn O(Δ) in the pool dimension. A column with
  // no affected member is untouched by construction: an independent set's
  // feasibility involves only its own members' endpoints, and the repair
  // lists every link whose endpoints moved. The stamp dedups columns
  // touching several affected links.
  ++churn_stamp_;
  std::size_t dropped = 0;
  for (const net::LinkId link : repair.links) {
    MRWSN_REQUIRE(link < num_links, "repair references an unknown link");
    for (const std::uint32_t idx : cols_of_link_[link]) {
      if (pool_stamp_[idx] == churn_stamp_) continue;
      pool_stamp_[idx] = churn_stamp_;
      const IndependentSet& set = pool_[idx];
      if (set.links.empty()) continue;  // tombstoned by an earlier repair
      if (model_->supports(set.links, set.rates)) continue;
      retire_pool_column(idx);
      ++dropped;
    }
  }
  stats_.columns_dropped += dropped;

  // Affected background rows re-seed their singleton (the old one may
  // have just been retired, or a moved endpoint may now admit a better
  // rate) and refresh their blocked flag; unaffected links' alone-rates
  // cannot have changed, so the rest of the background needs nothing.
  for (const net::LinkId link : repair.links) {
    if (bg_row_of_[link] >= 0) seed_singleton(link);
    update_blocked(link);
  }

  bg_dirty_ = true;
  publish_stale_ = true;
  ++stats_.topology_repairs;
  stats_.pool_columns = pool_live_;
}

void AdmissionEngine::evict() {
  const std::lock_guard<std::mutex> lock(commit_mu_);
  merge_shelved_locked();
  clear_locked();
  refresh_background();
  publish_locked();
}

SnapshotReadStats AdmissionEngine::snapshot_read_stats() const {
  SnapshotReadStats stats;
  stats.queries = read_queries_.load(std::memory_order_relaxed);
  stats.pricing_rounds = read_rounds_.load(std::memory_order_relaxed);
  stats.lp_pivots = read_pivots_.load(std::memory_order_relaxed);
  stats.shelved_columns = read_shelved_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace mrwsn::core
