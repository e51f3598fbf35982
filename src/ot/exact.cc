#include "ot/exact.h"

#include "lp/network_simplex.h"
#include "ot/sinkhorn.h"

namespace otclean::ot {

Result<double> ExactOtDistance(const prob::JointDistribution& p,
                               const prob::JointDistribution& q,
                               const CostFunction& cost,
                               const ExactOtOptions& options,
                               const ExecContext& ctx) {
  if (!(p.domain() == q.domain())) {
    return Status::InvalidArgument("ExactOtDistance: domain mismatch");
  }
  prob::JointDistribution pn = p;
  prob::JointDistribution qn = q;
  pn.Normalize();
  qn.Normalize();

  std::vector<size_t> p_cells, q_cells;
  for (size_t i = 0; i < pn.size(); ++i) {
    if (pn[i] > 0.0) p_cells.push_back(i);
  }
  for (size_t i = 0; i < qn.size(); ++i) {
    if (qn[i] > 0.0) q_cells.push_back(i);
  }
  if (p_cells.empty() || q_cells.empty()) {
    return Status::InvalidArgument("ExactOtDistance: zero measure");
  }

  linalg::Vector pv(p_cells.size()), qv(q_cells.size());
  for (size_t i = 0; i < p_cells.size(); ++i) pv[i] = pn[p_cells[i]];
  for (size_t j = 0; j < q_cells.size(); ++j) qv[j] = qn[q_cells[j]];

  // Stream the support×support cost — no dense BuildCostMatrix — and
  // reject NaN/±inf entries with the same row/col-indexed message the
  // Sinkhorn path produces.
  FunctionCostProvider provider(p.domain(), p_cells, q_cells, cost);
  Status finite = ValidateFiniteCosts("ExactOtDistance", provider);
  if (!finite.ok()) return finite;

  lp::NetworkSimplexOptions net;
  net.max_pivots = options.max_pivots;
  net.num_threads = options.num_threads;
  net.thread_pool = options.thread_pool;
  OTCLEAN_ASSIGN_OR_RETURN(
      lp::SparseNetworkSimplexResult tr,
      lp::SolveTransportNetwork(provider, pv, qv, net, /*mass_tol=*/1e-6, ctx));
  return tr.cost;
}

}  // namespace otclean::ot
