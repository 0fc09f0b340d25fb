#include "core/approx_apsp.hpp"

#include <algorithm>
#include <cmath>

#include "baseline/unweighted_apsp.hpp"
#include "core/bounds.hpp"
#include "util/int_math.hpp"

namespace dapsp::core {

using graph::Graph;
using graph::kInfDist;
using graph::NodeId;

ApproxApspResult approx_apsp(const Graph& g, ApproxApspParams params) {
  const NodeId n = g.node_count();
  util::check(params.eps > 0, "approx_apsp: eps must be positive");
  ApproxApspResult res;
  res.paper_bound = bounds::approx_apsp(n, params.eps);

  // Step 1: zero-weight reachability (exact distance 0 for those pairs).
  const auto zero = baseline::zero_reach_congest(g, &res.stats, params.env);

  // Step 2: lifted weights w' (computed locally by each node; no rounds).
  const auto n2 = static_cast<Weight>(n) * n;
  const auto lifted = [n2](Weight w) { return w == 0 ? Weight{1} : n2 * w; };

  // Step 3: per-scale rounding.  K ~ 3n/eps so that n rounding errors of
  // one rounded unit each cost at most (eps/3) * 2^i <= (eps/3) * delta'.
  const auto K = static_cast<Weight>(std::ceil(3.0 * n / params.eps));
  Weight max_lifted = 0;
  for (const auto& e : g.edges()) max_lifted = std::max(max_lifted, lifted(e.weight));
  const util::u128 max_dist =
      util::u128(max_lifted) * (n > 1 ? n - 1 : 1);  // longest simple path
  std::uint32_t scales = 1;
  while ((util::u128{1} << scales) < max_dist) ++scales;
  res.scales = scales;
  res.implementation_bound =
      (static_cast<std::uint64_t>(scales) + 1) *
          (2 * static_cast<std::uint64_t>(K) + 2ULL * n + 8) +
      2ULL * n + 8;  // + the zero-reachability phase

  std::vector<std::vector<Weight>> best(n, std::vector<Weight>(n, kInfDist));
  for (std::uint32_t i = 0; i < scales; ++i) {
    const Weight pow2 = Weight{1} << i;
    baseline::PositiveApspParams pa;
    pa.weight_of = [&lifted, K, pow2](const graph::Edge& e)
        -> std::optional<Weight> {
      // ceil(w' * K / 2^i) >= 1 because w' >= 1.
      const util::u128 num = util::u128(lifted(e.weight)) * util::u128(K);
      const util::u128 r = (num + util::u128(pow2) - 1) / util::u128(pow2);
      if (r > util::u128(Weight{1} << 62)) return std::nullopt;  // hopeless arc
      return static_cast<Weight>(r);
    };
    // Paths of lifted weight <= 2^{i+1} have rounded weight <= 2K + n.
    pa.distance_cap = 2 * K + n;
    pa.env = params.env;
    const auto run = baseline::positive_apsp(g, std::move(pa));
    res.stats += run.stats;

    for (NodeId s = 0; s < n; ++s) {
      for (NodeId v = 0; v < n; ++v) {
        if (run.dist[s][v] == kInfDist) continue;
        // Scale back: floor(rounded * 2^i / K) never dips below delta'.
        const util::u128 back = util::u128(run.dist[s][v]) * util::u128(pow2) /
                                util::u128(K);
        const auto est = static_cast<Weight>(back);
        best[s][v] = std::min(best[s][v], est);
      }
    }
  }

  // Step 4: fold in zero-reachability and undo the n^2 lift.
  res.dist.assign(n, std::vector<Weight>(n, kInfDist));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId v = 0; v < n; ++v) {
      if (zero[s][v]) {
        res.dist[s][v] = 0;
      } else if (best[s][v] != kInfDist) {
        res.dist[s][v] = best[s][v] / n2;
      }
    }
  }
  return res;
}

}  // namespace dapsp::core
