// The sharded closure's older names.  A shard is a row range of the one
// service::DistanceOracle table (service/oracle.hpp), so the sharded oracle
// is that type and its builder is build_oracle with a shard count.
#pragma once

#include <memory>

#include "service/oracle.hpp"

namespace dapsp::serve {

using ShardedOracle = service::DistanceOracle;

inline std::shared_ptr<ShardedOracle> build_sharded_oracle(
    const graph::Graph& g, const service::OracleBuildOptions& opts,
    std::size_t shards) {
  return std::make_shared<service::DistanceOracle>(
      service::build_oracle(g, opts, shards));
}

}  // namespace dapsp::serve
