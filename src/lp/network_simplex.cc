#include "lp/network_simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/parallel_for.h"
#include "linalg/thread_pool.h"

namespace otclean::lp {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kNoArc = static_cast<size_t>(-1);

/// Basis bookkeeping: the set of basic cells forms a spanning tree of the
/// bipartite row/column graph. Flows live in a hash map keyed by cell id
/// (only basic cells carry flow), and the basis is adjacency lists — both
/// O(m + n), so the engine never allocates anything m×n sized.
struct Basis {
  size_t m, n;
  std::vector<std::vector<size_t>> row_cells;  // per row: basic column ids
  std::vector<std::vector<size_t>> col_cells;  // per col: basic row ids
  std::unordered_map<size_t, double> flow;     // basic-cell flows

  Basis(size_t m_, size_t n_) : m(m_), n(n_), row_cells(m_), col_cells(n_) {
    flow.reserve(m_ + n_);
  }

  size_t Key(size_t i, size_t j) const { return i * n + j; }

  void Add(size_t i, size_t j, double f) {
    row_cells[i].push_back(j);
    col_cells[j].push_back(i);
    flow[Key(i, j)] = f;
  }

  void Remove(size_t i, size_t j) {
    auto& rc = row_cells[i];
    rc.erase(std::find(rc.begin(), rc.end(), j));
    auto& cc = col_cells[j];
    cc.erase(std::find(cc.begin(), cc.end(), i));
    flow.erase(Key(i, j));
  }

  double& FlowAt(size_t i, size_t j) { return flow[Key(i, j)]; }
};

/// Kept-arc set for the restricted solve: CSR over sorted per-row column
/// ids with costs gathered once at entry (the only cost reads the
/// restricted engine performs). Cells outside the set act as Big-M
/// artificial arcs so an initial spanning basis always exists; any
/// artificial still carrying flow at the optimum proves infeasibility.
struct ArcSet {
  std::vector<size_t> row_ptr;
  std::vector<size_t> cols;
  std::vector<double> costs;
  double big_m = 0.0;

  size_t Find(size_t i, size_t j) const {
    const size_t b = row_ptr[i], e = row_ptr[i + 1];
    const auto it = std::lower_bound(cols.begin() + b, cols.begin() + e, j);
    if (it == cols.begin() + e || *it != j) return kNoArc;
    return static_cast<size_t>(it - cols.begin());
  }

  double CostOf(size_t i, size_t j) const {
    const size_t k = Find(i, j);
    return k == kNoArc ? big_m : costs[k];
  }
};

/// Northwest-corner initial basic feasible solution: a cost-free O(m + n)
/// sweep that yields exactly m + n − 1 basic cells forming a connected
/// path — already a spanning tree, so no completion pass is needed.
void NorthwestInitial(const linalg::Vector& p, const linalg::Vector& q,
                      Basis& basis) {
  const size_t m = p.size();
  const size_t n = q.size();
  size_t i = 0, j = 0;
  double s = p[0], d = q[0];
  while (true) {
    const double f = std::min(s, d);
    basis.Add(i, j, std::max(f, 0.0));
    s -= f;
    d -= f;
    const bool last_row = (i + 1 == m);
    const bool last_col = (j + 1 == n);
    if (last_row && last_col) break;
    if (last_row) {
      d = q[++j];
    } else if (last_col) {
      s = p[++i];
    } else if (s <= d) {
      s = p[++i];
    } else {
      d = q[++j];
    }
  }
}

/// Computes dual potentials over the basis tree: u_i + v_j = c_ij for
/// basic cells, anchored at u_0 = 0 per component. `basic_cost(i, j)` is
/// only ever called on basic cells.
template <typename BasicCost>
void ComputePotentials(const BasicCost& basic_cost, const Basis& basis,
                       std::vector<double>& u, std::vector<double>& v) {
  const size_t m = basis.m;
  const size_t n = basis.n;
  u.assign(m, kInf);
  v.assign(n, kInf);
  std::vector<size_t> stack;
  for (size_t start = 0; start < m; ++start) {
    if (u[start] != kInf) continue;
    u[start] = 0.0;
    stack.push_back(start);  // rows are ids [0,m), cols [m, m+n)
    while (!stack.empty()) {
      const size_t node = stack.back();
      stack.pop_back();
      if (node < m) {
        for (size_t j : basis.row_cells[node]) {
          if (v[j] == kInf) {
            v[j] = basic_cost(node, j) - u[node];
            stack.push_back(m + j);
          }
        }
      } else {
        const size_t j = node - m;
        for (size_t i : basis.col_cells[j]) {
          if (u[i] == kInf) {
            u[i] = basic_cost(i, j) - v[j];
            stack.push_back(i);
          }
        }
      }
    }
  }
}

/// Finds the unique alternating cycle the entering cell (ei, ej) closes in
/// the basis tree: a path from row ei to column ej through basic cells.
/// Returns the path as alternating (row, col) cells starting with the
/// entering cell; even positions gain flow, odd positions lose it.
bool FindCycle(const Basis& basis, size_t ei, size_t ej,
               std::vector<std::pair<size_t, size_t>>& cycle) {
  const size_t m = basis.m;
  // BFS from row ei to column ej over basic cells.
  std::vector<int> prev(m + basis.n, -1);
  std::vector<bool> visited(m + basis.n, false);
  std::vector<size_t> queue = {ei};
  visited[ei] = true;
  bool found = false;
  for (size_t qi = 0; qi < queue.size() && !found; ++qi) {
    const size_t node = queue[qi];
    if (node < m) {
      for (size_t j : basis.row_cells[node]) {
        if (!visited[m + j]) {
          visited[m + j] = true;
          prev[m + j] = static_cast<int>(node);
          if (j == ej) {
            found = true;
            break;
          }
          queue.push_back(m + j);
        }
      }
    } else {
      const size_t j = node - m;
      for (size_t i : basis.col_cells[j]) {
        if (!visited[i]) {
          visited[i] = true;
          prev[i] = static_cast<int>(node);
          queue.push_back(i);
        }
      }
    }
  }
  if (!found) return false;

  // Reconstruct node path ej <- ... <- ei, then convert to cells.
  std::vector<size_t> nodes;
  size_t cur = m + ej;
  while (cur != ei) {
    nodes.push_back(cur);
    cur = static_cast<size_t>(prev[cur]);
  }
  nodes.push_back(ei);
  std::reverse(nodes.begin(), nodes.end());  // ei ... m+ej

  cycle.clear();
  cycle.emplace_back(ei, ej);  // entering cell (gains flow)
  // Path alternates row,col,row,col...; consecutive pairs are basic cells.
  for (size_t k = 0; k + 1 < nodes.size(); ++k) {
    const size_t a = nodes[k];
    const size_t b = nodes[k + 1];
    if (a < m) {
      cycle.emplace_back(a, b - m);
    } else {
      cycle.emplace_back(b, a - m);
    }
  }
  return true;
}

/// One pricing candidate; chunk-local minima merge in chunk order with
/// strict comparisons, so the entering arc is the same for any thread
/// count or pool mode.
struct Candidate {
  double reduced;
  size_t i, j;
};

/// Entering-arc pricing over the full m×n grid, streaming cost rows
/// tile-by-tile. Returns the most negative reduced cost below −tol with a
/// lowest-(i, j) tie-break; (m, n) when none. Basic arcs need no mask:
/// their reduced cost is 0 by construction of the potentials, far above
/// the −tol acceptance threshold.
Candidate PriceFullGrid(const linalg::CostProvider& cost,
                        const std::vector<double>& u,
                        const std::vector<double>& v, double tol,
                        size_t threads, linalg::ThreadPool* pool) {
  const size_t m = u.size();
  const size_t n = v.size();
  const size_t grain = linalg::GrainForWork(n);
  const linalg::ChunkPlan plan = linalg::PlanChunks(m, threads, grain);
  std::vector<Candidate> best(std::max<size_t>(plan.num_chunks, 1),
                              Candidate{-tol, m, n});
  linalg::ParallelFor(
      m, threads,
      [&](size_t begin, size_t end) {
        Candidate local{-tol, m, n};
        std::vector<double> tile(
            std::min<size_t>(n, linalg::kCostStreamTileCols));
        for (size_t i = begin; i < end; ++i) {
          for (size_t c0 = 0; c0 < n; c0 += linalg::kCostStreamTileCols) {
            const size_t c1 = std::min(n, c0 + linalg::kCostStreamTileCols);
            cost.Fill(i, c0, c1, tile.data());
            for (size_t j = c0; j < c1; ++j) {
              const double reduced = tile[j - c0] - u[i] - v[j];
              if (reduced < local.reduced) local = Candidate{reduced, i, j};
            }
          }
        }
        best[begin / plan.chunk] = local;
      },
      grain, pool);
  Candidate out{-tol, m, n};
  for (const Candidate& c : best) {
    if (c.reduced < out.reduced) out = c;
  }
  return out;
}

/// Entering-arc pricing restricted to kept arcs, scanning the gathered CSR
/// costs. Artificial (non-kept) arcs never enter.
Candidate PriceRestricted(const ArcSet& arcs, const std::vector<double>& u,
                          const std::vector<double>& v, double tol,
                          size_t threads, linalg::ThreadPool* pool) {
  const size_t m = u.size();
  const size_t n = v.size();
  const size_t nnz = arcs.cols.size();
  const size_t grain = linalg::GrainForWork(std::max<size_t>(1, nnz / std::max<size_t>(m, 1)));
  const linalg::ChunkPlan plan = linalg::PlanChunks(m, threads, grain);
  std::vector<Candidate> best(std::max<size_t>(plan.num_chunks, 1),
                              Candidate{-tol, m, n});
  linalg::ParallelFor(
      m, threads,
      [&](size_t begin, size_t end) {
        Candidate local{-tol, m, n};
        for (size_t i = begin; i < end; ++i) {
          for (size_t k = arcs.row_ptr[i]; k < arcs.row_ptr[i + 1]; ++k) {
            const size_t j = arcs.cols[k];
            const double reduced = arcs.costs[k] - u[i] - v[j];
            if (reduced < local.reduced) local = Candidate{reduced, i, j};
          }
        }
        best[begin / plan.chunk] = local;
      },
      grain, pool);
  Candidate out{-tol, m, n};
  for (const Candidate& c : best) {
    if (c.reduced < out.reduced) out = c;
  }
  return out;
}

Status ValidateMarginals(const linalg::Vector& p, const linalg::Vector& q,
                         double mass_tol) {
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] < 0.0) {
      return Status::InvalidArgument("SolveTransportNetwork: negative supply");
    }
  }
  for (size_t j = 0; j < q.size(); ++j) {
    if (q[j] < 0.0) {
      return Status::InvalidArgument("SolveTransportNetwork: negative demand");
    }
  }
  if (std::fabs(p.Sum() - q.Sum()) > mass_tol) {
    return Status::InvalidArgument(
        "SolveTransportNetwork: unbalanced supplies/demands");
  }
  return Status::OK();
}

/// The shared pivot engine. `arcs` is null for the full-grid mode.
Result<SparseNetworkSimplexResult> SolveCore(
    const linalg::CostProvider& cost, const ArcSet* arcs,
    const linalg::Vector& p, const linalg::Vector& q,
    const NetworkSimplexOptions& options, double mass_tol,
    const ExecContext& ctx) {
  const size_t m = p.size();
  const size_t n = q.size();
  if (cost.rows() != m || cost.cols() != n) {
    return Status::InvalidArgument("SolveTransportNetwork: dimension mismatch");
  }
  Status valid = ValidateMarginals(p, q, mass_tol);
  if (!valid.ok()) return valid;
  if (m == 0 || n == 0) return SparseNetworkSimplexResult{};

  std::optional<linalg::ThreadPool> owned_pool;
  linalg::ThreadPool* pool = linalg::ResolveSolvePool(
      options.thread_pool, options.num_threads, owned_pool);
  const size_t threads =
      std::max<size_t>(1, linalg::ResolveThreadCount(options.num_threads));

  auto basic_cost = [&](size_t i, size_t j) {
    return arcs != nullptr ? arcs->CostOf(i, j) : cost.At(i, j);
  };

  Basis basis(m, n);
  NorthwestInitial(p, q, basis);

  SparseNetworkSimplexResult result;
  std::vector<double> u, v;
  std::vector<std::pair<size_t, size_t>> cycle;
  bool optimal = false;
  for (size_t pivot = 0; pivot < options.max_pivots; ++pivot) {
    OTCLEAN_RETURN_NOT_OK(CheckStop(ctx, "SolveTransportNetwork: pivot"));

    ComputePotentials(basic_cost, basis, u, v);
    const Candidate enter =
        arcs != nullptr
            ? PriceRestricted(*arcs, u, v, options.tol, threads, pool)
            : PriceFullGrid(cost, u, v, options.tol, threads, pool);
    if (enter.i == m) {  // optimal
      result.pivots = pivot;
      optimal = true;
      break;
    }

    if (!FindCycle(basis, enter.i, enter.j, cycle)) {
      return Status::Internal("SolveTransportNetwork: basis tree broken");
    }
    // Odd positions in the cycle lose flow; theta = their minimum.
    double theta = kInf;
    size_t leave_pos = 1;
    for (size_t k = 1; k < cycle.size(); k += 2) {
      const double f = basis.FlowAt(cycle[k].first, cycle[k].second);
      if (f < theta) {
        theta = f;
        leave_pos = k;
      }
    }
    const auto leave = cycle[leave_pos];
    basis.Remove(leave.first, leave.second);
    basis.Add(enter.i, enter.j, theta);
    for (size_t k = 1; k < cycle.size(); ++k) {
      if (k == leave_pos) continue;
      double& f = basis.FlowAt(cycle[k].first, cycle[k].second);
      f += (k % 2 == 0) ? theta : -theta;
      if (f < 0.0) f = 0.0;  // numerical guard
    }
  }
  if (!optimal) {
    return Status::NotConverged("SolveTransportNetwork: pivot cap reached");
  }

  // Collect nonzero flows. In restricted mode, a Big-M artificial still
  // carrying mass at the optimum means the kept arcs cannot route the
  // marginals — fail loudly instead of emitting an off-support plan.
  for (const auto& [key, f] : basis.flow) {
    if (f <= 0.0) continue;
    const size_t i = key / n;
    const size_t j = key % n;
    if (arcs != nullptr && arcs->Find(i, j) == kNoArc) {
      if (f > mass_tol) {
        return Status::InvalidArgument(
            "SolveTransportNetworkRestricted: the kept arc set cannot carry "
            "the marginals (artificial arc still active at the optimum) — "
            "widen the support");
      }
      continue;
    }
    result.entries.push_back(SparsePlanEntry{i, j, f});
    result.cost += f * basic_cost(i, j);
  }
  std::sort(result.entries.begin(), result.entries.end(),
            [](const SparsePlanEntry& a, const SparsePlanEntry& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  return result;
}

}  // namespace

Result<SparseNetworkSimplexResult> SolveTransportNetwork(
    const linalg::CostProvider& cost, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options,
    double mass_tol, const ExecContext& ctx) {
  return SolveCore(cost, /*arcs=*/nullptr, p, q, options, mass_tol, ctx);
}

Result<SparseNetworkSimplexResult> SolveTransportNetworkRestricted(
    const linalg::CostProvider& cost,
    const std::vector<std::vector<size_t>>& arc_cols, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options,
    double mass_tol, const ExecContext& ctx) {
  const size_t m = p.size();
  const size_t n = q.size();
  if (arc_cols.size() != m) {
    return Status::InvalidArgument(
        "SolveTransportNetworkRestricted: arc_cols must have one entry per "
        "supply row");
  }
  ArcSet arcs;
  arcs.row_ptr.assign(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    arcs.row_ptr[i + 1] = arcs.row_ptr[i] + arc_cols[i].size();
  }
  arcs.cols.reserve(arcs.row_ptr[m]);
  for (size_t i = 0; i < m; ++i) {
    size_t prev = n;  // sentinel: no previous column yet
    for (size_t j : arc_cols[i]) {
      if (j >= n || (prev != n && j <= prev)) {
        return Status::InvalidArgument(
            "SolveTransportNetworkRestricted: arc_cols rows must be sorted, "
            "unique column ids < cols");
      }
      arcs.cols.push_back(j);
      prev = j;
    }
  }
  // Gather kept-arc costs once — the only cost reads the restricted
  // engine performs.
  arcs.costs.resize(arcs.cols.size());
  double max_abs = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const size_t b = arcs.row_ptr[i], e = arcs.row_ptr[i + 1];
    if (b == e) continue;
    cost.Gather(i, arcs.cols.data() + b, e - b, arcs.costs.data() + b);
    for (size_t k = b; k < e; ++k) {
      if (!std::isfinite(arcs.costs[k])) {
        return Status::InvalidArgument(
            "SolveTransportNetworkRestricted: non-finite kept-arc cost");
      }
      max_abs = std::max(max_abs, std::fabs(arcs.costs[k]));
    }
  }
  // Big-M: strictly dominates any path of kept arcs so artificial arcs
  // only survive when the kept set is genuinely infeasible.
  arcs.big_m = (max_abs + 1.0) * 4.0 * static_cast<double>(m + n + 1);
  return SolveCore(cost, &arcs, p, q, options, mass_tol, ctx);
}

Result<NetworkSimplexResult> SolveTransportNetwork(
    const linalg::Matrix& cost, const linalg::Vector& p,
    const linalg::Vector& q, const NetworkSimplexOptions& options,
    double mass_tol, const ExecContext& ctx) {
  linalg::MatrixCostProvider provider(cost);
  Result<SparseNetworkSimplexResult> sparse =
      SolveCore(provider, /*arcs=*/nullptr, p, q, options, mass_tol, ctx);
  if (!sparse.ok()) return sparse.status();
  NetworkSimplexResult result;
  result.plan = linalg::Matrix(p.size(), q.size(), 0.0);
  for (const SparsePlanEntry& e : sparse->entries) {
    result.plan(e.row, e.col) = e.value;
  }
  result.cost = sparse->cost;
  result.pivots = sparse->pivots;
  return result;
}

}  // namespace otclean::lp
