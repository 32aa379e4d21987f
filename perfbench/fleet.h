// The fleet layer of serve_lookup's traced run (see fleet.cc).
#pragma once

#include "engine/engine.h"
#include "harness.h"
#include "inputs.h"

namespace perfbench {

/// Brings up a 2-node cluster-mode fleet over `engine`, builds its
/// topology from `inputs.prefixes`, and drives ClusterClient::BatchLookup
/// over `inputs.stream` for `seconds`, checking every answer against
/// `inputs.expected` (with `inject`, one answer is made wrong first).
/// Records cluster.build_topology and cluster.batch_lookup spans and the
/// cluster.redirects count; logs the fleet's rate on stderr.
void SweepFleetLayers(netclust::engine::Engine& engine,
                      const LookupInputs& inputs, double seconds, bool inject,
                      Tracer& tracer, Report& report);

}  // namespace perfbench
