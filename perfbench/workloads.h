// The benchmark's workloads. Each builds its inputs from the seed (the
// set-up), measures for Options::seconds, checks every output it measured
// against a reference computed apart from the program, and fills the
// report: end-to-end metrics in a plain run, per-layer metrics (from the
// tracer's spans and the program's counters) in a traced run.
#pragma once

#include <cstdint>

#include "harness.h"

namespace perfbench {

/// `start_ns` is the process's start. `setup_s` is the time from it to
/// the first measured operation, less the time the workload spends making
/// its own inputs and references, so what it counts is the program's
/// set-up: seeding, compiling and serving.
void RunOfflineCluster(const Options& options, std::int64_t start_ns,
                       Tracer& tracer, Report& report);
void RunServeLookup(const Options& options, std::int64_t start_ns,
                    Tracer& tracer, Report& report);
void RunServeChurn(const Options& options, std::int64_t start_ns,
                   Tracer& tracer, Report& report);

}  // namespace perfbench
