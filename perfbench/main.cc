// perfbench: runs one workload of the netclust benchmark and prints its
// result as the last line of stdout.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--inject FAULT]
//
// A plain run reports every end-to-end metric of BENCHMARK.json (the
// lists below). --trace 1 records spans around every call into the
// program's modules and reports every per-layer metric instead. A layer
// the named workload does not reach is timed in a short traced pass of
// the workload that does (kFillerSeconds each, after the named one); the
// spans of each pass are written to perfbench_out/trace-NAME-seedN-PASS.jsonl.
// --inject feeds the workload's checker one deliberate wrong answer (see
// README.md, "Self-test of the checks"); the run must then report
// "correct": false.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

// The metrics of BENCHMARK.json; a run that lacks one exits non-zero.
const std::vector<std::string> kEndToEnd = {
    "setup_s", "peak_rss_mb", "lookups_per_s", "latency_ms"};
const std::vector<std::string> kPerLayer = {
    "bgp.mrt_decode_ms",       "bgp.merge_ms",
    "bgp.table_clone_us",      "bgp.compile_flat_ms",
    "bgp.compile_delta_us",    "bgp.directory_bytes",
    "weblog.clf_parse_ms",     "core.cluster_ms",
    "core.summarize_ms",       "trie.patricia_lookup_ns",
    "trie.flat_lookup_ns",     "trie.flat_batch_ns",
    "engine.seed_ms",          "engine.lookup_batch_ns",
    "engine.apply_update_us",  "engine.delta_publishes",
    "engine.full_publishes",   "server.decode_request_ns",
    "server.encode_batch_ns",  "server.decode_result_ns",
    "server.frame_rtt_us",     "server.ingest_ack_us",
    "server.busy_replies",     "server.short_writes",
    "cluster.build_topology_ms", "cluster.batch_lookup_us",
    "cluster.redirects"};

constexpr double kFillerSeconds = 3.0;

using Workload = void (*)(const perfbench::Options&, std::int64_t,
                          perfbench::Tracer&, perfbench::Report&);

struct Entry {
  const char* name;
  Workload run;
};

constexpr Entry kWorkloads[] = {
    {"offline_cluster", perfbench::RunOfflineCluster},
    {"serve_lookup", perfbench::RunServeLookup},
    {"serve_churn", perfbench::RunServeChurn},
};

/// Runs one pass of `entry` and, when tracing, writes its spans.
void RunPass(const Entry& entry, const perfbench::Options& options,
             std::int64_t start_ns, perfbench::Report& report) {
  perfbench::Tracer tracer(options.trace);
  entry.run(options, start_ns, tracer, report);
  if (!options.trace) return;
  ::mkdir("perfbench_out", 0755);
  const std::string path = "perfbench_out/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-" +
                           entry.name + ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n",
                 tracer.size(), path.c_str());
  }
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "offline_cluster|serve_lookup|serve_churn "
               "--seed N --seconds S --trace 0|1 [--inject FAULT]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = perfbench::NowNs();
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--inject") {
      options.inject = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return Usage("--seconds must be positive");

  const Entry* named = nullptr;
  for (const Entry& entry : kWorkloads) {
    if (options.workload == entry.name) named = &entry;
  }
  if (named == nullptr) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  perfbench::Report report;
  RunPass(*named, options, start_ns, report);
  if (options.trace) {
    for (const Entry& entry : kWorkloads) {
      if (&entry == named) continue;
      perfbench::Options filler = options;
      filler.seconds = kFillerSeconds;
      filler.inject.clear();
      perfbench::Report filled;
      RunPass(entry, filler, perfbench::NowNs(), filled);
      report.Merge(filled);
    }
  }

  for (const std::string& name : options.trace ? kPerLayer : kEndToEnd) {
    if (!report.Has(name)) {
      std::fprintf(stderr, "perfbench: %s reported no metric %s\n",
                   options.workload.c_str(), name.c_str());
      return 3;
    }
  }
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
