// Routing-table construction on a mesh network with a handful of gateway
// nodes, using the faster blocker-set k-SSP algorithm (Algorithm 3 /
// Theorem I.2).  Every node ends up knowing its distance and next-hop-back
// (last edge) toward each gateway -- the classic distance-vector use case
// the CONGEST k-SSP problem models.
//
//   ./network_routing [rows] [cols] [seed]
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "core/blocker_apsp.hpp"
#include "graph/generators.hpp"
#include "service/oracle.hpp"

int main(int argc, char** argv) {
  using namespace dapsp;

  const graph::NodeId rows =
      argc > 1 ? static_cast<graph::NodeId>(std::atoi(argv[1])) : 4;
  const graph::NodeId cols =
      argc > 2 ? static_cast<graph::NodeId>(std::atoi(argv[2])) : 5;
  const std::uint64_t seed =
      argc > 3 ? static_cast<std::uint64_t>(std::atoll(argv[3])) : 7;

  // Mesh with link costs 1..10; a few zero-cost links model co-located
  // routers connected by a backplane.
  graph::WeightSpec weights;
  weights.min_weight = 1;
  weights.max_weight = 10;
  weights.zero_fraction = 0.15;
  const graph::Graph g = graph::grid(rows, cols, weights, seed);

  // Gateways: the four mesh corners.
  core::BlockerApspParams params;
  params.sources = {0, cols - 1, (rows - 1) * cols, rows * cols - 1};
  params.h = 3;

  std::cout << "mesh " << rows << "x" << cols << ", gateways:";
  for (const auto s : params.sources) std::cout << ' ' << s;
  std::cout << "\n\n";

  const core::BlockerApspResult res = core::blocker_apsp(g, params);

  std::cout << "Algorithm 3 phases (rounds): cssp=" << res.cssp_rounds
            << " blocker=" << res.blocker_rounds << " sssp=" << res.sssp_rounds
            << " combine=" << res.combine_rounds
            << "  total=" << res.stats.rounds << "\n";
  std::cout << "blocker set size q=" << res.blockers.size() << " (h=" << res.h
            << ")\n\n";

  std::cout << "routing table (dist/last-hop toward each gateway):\n  node |";
  for (const auto s : res.sources) {
    std::cout << std::setw(10) << ("gw " + std::to_string(s)) << " |";
  }
  std::cout << "\n";
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    std::cout << "  " << std::setw(4) << v << " |";
    for (std::size_t i = 0; i < res.sources.size(); ++i) {
      std::string cell;
      if (res.dist[i][v] == graph::kInfDist) {
        cell = "--";
      } else {
        cell = std::to_string(res.dist[i][v]);
        if (res.parent[i][v] != graph::kNoNode) {
          cell += '/';
          cell += std::to_string(res.parent[i][v]);
        }
      }
      std::cout << std::setw(10) << cell << " |";
    }
    std::cout << "\n";
  }

  // Full next-hop forwarding: the distance oracle of an APSP run (Algorithm
  // 1) holds every node's next hop; push a packet from the last node to each
  // gateway.
  service::OracleBuildOptions apsp;
  apsp.solver = service::Solver::kPipelined;
  const service::DistanceOracle oracle = service::build_oracle(g, apsp);
  const graph::NodeId src = rows * cols - 1;
  std::cout << "\nforwarding from node " << src << ":\n";
  for (const auto gw : res.sources) {
    const auto path = oracle.path(src, gw);
    if (!path) {
      std::cout << "  -> " << gw << ": unreachable\n";
      continue;
    }
    std::cout << "  -> " << gw << " (cost " << oracle.dist(src, gw) << "): ";
    for (std::size_t i = 0; i < path->size(); ++i) {
      std::cout << (i ? " > " : "") << (*path)[i];
    }
    std::cout << "\n";
  }
  return 0;
}
