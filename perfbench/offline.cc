// offline_cluster: the paper's batch job (§3.2) on one thread, from input
// bytes to a finished clustering — decode the 14 MRT dumps, merge them,
// parse the CLF log, cluster by longest-prefix match and summarize.
// Touches bgp, weblog, core and the Patricia lookup path; no engine or
// server code.
#include <sched.h>

#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "bgp/mrt.h"
#include "bgp/prefix_table.h"
#include "core/cluster.h"
#include "core/metrics.h"
#include "inputs.h"
#include "synth/rng.h"
#include "synth/workload.h"
#include "weblog/log.h"
#include "workloads.h"

namespace perfbench {

namespace bgp = netclust::bgp;
namespace core = netclust::core;

namespace {

// The Nagano log's shape (client and URL popularity, diurnal profile, one
// proxy) at its full 59,582 distinct clients, cut to 400k requests: one
// pass takes about half a second, so a run times a few dozen passes and
// its trimmed mean shrugs off a slow second on a shared machine.
constexpr std::size_t kLogRequests = 400'000;

/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Lets the calling thread run only on `cpus`; a failure leaves its
/// affinity as it was.
void PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof set, &set);
}

/// Reads a byte range in place, so each round parses the same bytes
/// without copying them into a stringstream first.
class ByteStream : public std::streambuf {
 public:
  explicit ByteStream(std::string& bytes) {
    setg(bytes.data(), bytes.data(), bytes.data() + bytes.size());
  }
};

struct Inputs {
  std::vector<bgp::SnapshotInfo> infos;
  std::vector<std::vector<std::uint8_t>> dumps;  // TABLE_DUMP_V2 bytes
  std::string clf;
  std::size_t lines = 0;
  std::size_t clients = 0;
  ReferenceLpm reference;
};

Inputs MakeInputs(std::uint64_t seed) {
  PaperWorld world = MakePaperWorld(seed);
  Inputs inputs;
  inputs.reference = ReferenceFor(world.snapshots);
  for (const bgp::Snapshot& snapshot : world.snapshots) {
    inputs.infos.push_back(snapshot.info);
    inputs.dumps.push_back(bgp::WriteMrt(snapshot, 944006400));  // 1/12/1999
  }
  netclust::synth::WorkloadConfig config = netclust::synth::NaganoConfig(1.0);
  config.seed = netclust::synth::Mix64(seed ^ 0x4E4147414E4Full);
  config.target_requests = kLogRequests;
  config.proxy_request_fraction = 77311.0 / 11665713.0;
  const netclust::synth::GeneratedLog generated =
      netclust::synth::GenerateLog(world.internet, config);
  std::ostringstream clf;
  generated.log.WriteClfStream(clf);
  inputs.clf = std::move(clf).str();
  // Counted from the bytes, not from the writer's return value: the
  // conservation check compares two totals reached independently.
  for (const char c : inputs.clf) inputs.lines += c == '\n' ? 1 : 0;
  inputs.clients = generated.log.unique_clients();
  return inputs;
}

struct RoundOutput {
  core::Clustering clustering;
  core::ClusteringSummary summary;
  std::size_t parsed = 0;
  std::size_t malformed = 0;
  std::size_t decode_failures = 0;
  /// Time spent in the traced run's layer sweep, which is not part of the
  /// batch job and is taken off the pass time.
  double sweep_s = 0.0;
};

/// One pass of the batch job; the caller times it.
RoundOutput RunRound(Inputs& inputs, Tracer& tracer) {
  RoundOutput out;
  std::vector<bgp::Snapshot> decoded;
  {
    auto span = tracer.Open("bgp.mrt_decode");
    for (std::size_t i = 0; i < inputs.dumps.size(); ++i) {
      auto snapshot = bgp::ReadMrt(inputs.dumps[i], inputs.infos[i]);
      if (!snapshot.ok()) {
        ++out.decode_failures;
        continue;
      }
      decoded.push_back(std::move(snapshot.value()));
    }
  }
  bgp::PrefixTable table;
  {
    auto span = tracer.Open("bgp.merge");
    for (const bgp::Snapshot& snapshot : decoded) table.AddSnapshot(snapshot);
  }
  netclust::weblog::ServerLog log("nagano");
  {
    auto span = tracer.Open("weblog.clf_parse");
    ByteStream bytes(inputs.clf);
    std::istream in(&bytes);
    out.parsed = log.AppendClfStream(in, &out.malformed);
  }
  {
    auto span = tracer.Open("core.cluster");
    out.clustering = core::ClusterNetworkAware(log, table);
  }
  {
    auto span = tracer.Open("core.summarize");
    out.summary = core::Summarize(out.clustering);
  }
  if (tracer.enabled()) {
    const std::int64_t sweep_start = NowNs();
    // Layer sweep on this round's table: the Patricia lookup every client
    // took inside ClusterNetworkAware, and the flat directory the serving
    // path would compile from the same table.
    const auto& clients = out.clustering.clients;
    {
      auto span = tracer.Open("trie.patricia_lookup", clients.size());
      std::size_t found = 0;
      for (const auto& client : clients) {
        found += table.LongestMatch(client.address).has_value() ? 1 : 0;
      }
      tracer.Count("trie.patricia_found", static_cast<double>(found));
    }
    bgp::PrefixTable::Flat flat;
    {
      auto span = tracer.Open("bgp.compile_flat");
      flat = table.CompileFlat();
    }
    tracer.Count("bgp.directory_bytes",
                 static_cast<double>(flat.directory_bytes()));
    out.sweep_s = SecondsBetween(sweep_start, NowNs());
  }
  return out;
}

void Check(const Inputs& inputs, const RoundOutput& out, Report& report) {
  if (out.decode_failures != 0) {
    report.Incorrect("an MRT dump failed to decode");
  }
  if (out.malformed != 0 || out.parsed != inputs.lines) {
    report.Incorrect("CLF parse kept " + std::to_string(out.parsed) + " of " +
                     std::to_string(inputs.lines) + " lines (" +
                     std::to_string(out.malformed) + " malformed)");
  }
  const core::Clustering& c = out.clustering;
  if (c.clients.size() != inputs.clients) {
    report.Incorrect("clustering saw " + std::to_string(c.clients.size()) +
                     " clients, the log has " +
                     std::to_string(inputs.clients));
  }
  // Every client sits in exactly one cluster or in the unclustered list,
  // and the requests of both sum to the lines written.
  std::vector<std::uint8_t> placed(c.clients.size(), 0);
  std::uint64_t requests = 0;
  const auto place = [&](std::uint32_t member) {
    if (member >= placed.size() || placed[member]++ != 0) {
      report.Incorrect("client " + std::to_string(member) +
                       " is placed twice or does not exist");
      return false;
    }
    return true;
  };
  for (const core::Cluster& cluster : c.clusters) {
    requests += cluster.requests;
    for (const std::uint32_t member : cluster.members) {
      if (!place(member)) return;
      const netclust::net::IpAddress address = c.clients[member].address;
      const Answer expected = inputs.reference.Resolve(address);
      if (!cluster.key.Contains(address) || !expected.found ||
          expected.prefix != cluster.key ||
          expected.bgp == cluster.from_network_dump) {
        report.Incorrect("client " + address.ToString() + " is in cluster " +
                         cluster.key.ToString() + "; the reference says " +
                         (expected.found ? expected.prefix.ToString()
                                         : std::string("unclustered")));
        return;
      }
    }
  }
  for (const std::uint32_t member : c.unclustered) {
    if (!place(member)) return;
    requests += c.clients[member].requests;
    if (inputs.reference.Resolve(c.clients[member].address).found) {
      report.Incorrect("client " + c.clients[member].address.ToString() +
                       " is unclustered but has a reference match");
      return;
    }
  }
  for (std::size_t i = 0; i < placed.size(); ++i) {
    if (placed[i] == 0) {
      report.Incorrect("client " + std::to_string(i) + " is in no cluster");
      return;
    }
  }
  if (requests != inputs.lines || out.summary.requests != inputs.lines) {
    report.Incorrect("requests sum to " + std::to_string(requests) +
                     " (summary " + std::to_string(out.summary.requests) +
                     "), the log has " + std::to_string(inputs.lines) +
                     " lines");
  }
}

}  // namespace

void RunOfflineCluster(const Options& options, std::int64_t start_ns,
                       Tracer& tracer, Report& report) {
  const std::int64_t inputs_start = NowNs();
  Inputs inputs = MakeInputs(options.seed);
  const std::int64_t inputs_ns = NowNs() - inputs_start;
  std::fprintf(stderr,
               "offline_cluster: %zu dumps (%zu bytes), %zu CLF lines "
               "(%zu bytes), %zu clients, %zu reference prefixes\n",
               inputs.dumps.size(),
               [&] {
                 std::size_t bytes = 0;
                 for (const auto& d : inputs.dumps) bytes += d.size();
                 return bytes;
               }(),
               inputs.lines, inputs.clf.size(), inputs.clients,
               inputs.reference.size());

  // The batch job has no set-up apart from its first pass, which runs
  // cold: setup_s is the time from the process's start to the first
  // finished clustering, less input generation, and latency_ms is taken
  // over the later passes.
  //
  // The passes after the first take the CPUs in turn, one pass pinned to
  // each. On a VM whose vCPUs change speed apart from one another (one
  // ran at 0.55-1.0 of another's speed over the same 30 s), a lone busy
  // thread would otherwise stay on one vCPU and measure that vCPU alone.
  double setup_s = 0.0;
  std::vector<double> round_s;
  const std::vector<int> cpus = AllowedCpus();
  const std::int64_t end = NowNs() + static_cast<std::int64_t>(
                                         options.seconds * 1e9);
  do {
    if (report.attempted != 0 && !cpus.empty()) {
      PinTo({cpus[report.attempted % cpus.size()]});
    }
    const std::int64_t t0 = NowNs();
    RoundOutput out = RunRound(inputs, tracer);
    const std::int64_t t1 = NowNs();
    if (report.attempted == 0) {
      setup_s = SecondsBetween(start_ns + inputs_ns, t1) - out.sweep_s;
      std::fprintf(stderr,
                   "offline_cluster: inputs %.3f s, first pass %.4f s, "
                   "set-up %.4f s\n",
                   static_cast<double>(inputs_ns) / 1e9,
                   SecondsBetween(t0, t1) - out.sweep_s, setup_s);
    } else {
      round_s.push_back(SecondsBetween(t0, t1) - out.sweep_s);
      std::fprintf(stderr, "offline_cluster: pass %zu took %.4f s\n",
                   round_s.size() + 1, round_s.back());
    }
    ++report.attempted;
    if (options.inject == "swap-prefix" && out.clustering.clusters.size() > 1) {
      std::swap(out.clustering.clusters[0].key,
                out.clustering.clusters[1].key);
    } else if (options.inject == "drop-request" &&
               !out.clustering.clusters.empty()) {
      --out.clustering.clusters[0].requests;
    }
    Check(inputs, out, report);
  } while (NowNs() < end || round_s.empty());
  if (!cpus.empty()) PinTo(cpus);

  if (tracer.enabled()) {
    report.SpanMetric(tracer, "bgp.mrt_decode", "ms");
    report.SpanMetric(tracer, "bgp.merge", "ms");
    report.SpanMetric(tracer, "bgp.compile_flat", "ms");
    report.Metric("bgp.directory_bytes", tracer.count("bgp.directory_bytes"),
                  "bytes");
    report.SpanMetric(tracer, "weblog.clf_parse", "ms");
    report.SpanMetric(tracer, "core.cluster", "ms");
    report.SpanMetric(tracer, "core.summarize", "ms");
    report.SpanMetric(tracer, "trie.patricia_lookup", "ns");
    std::fprintf(stderr, "offline_cluster (traced): latency_ms %.4f\n",
                 TrimmedMean(round_s, kTrim) * 1e3);
  } else {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    // A lookup here is one CLF request resolved to its cluster, counted
    // over the whole pass from input bytes to summary. Both figures take
    // the trimmed mean of the passes after the first.
    const double pass_s = TrimmedMean(round_s, kTrim);
    report.Metric("lookups_per_s", static_cast<double>(inputs.lines) / pass_s,
                  "1/s");
    report.Metric("latency_ms", pass_s * 1e3, "ms");
  }
}

}  // namespace perfbench
