// The fleet layer, timed in serve_lookup's traced run: a 2-node
// cluster-mode fleet in-process over serve_lookup's engine, driven through
// cluster::ClusterClient::BatchLookup with the same table and stream
// (256-address batches), so its rate against lookups_per_s is a
// like-for-like scaling ratio.
//
// It is not a workload of its own. A call is four thread wake-ups in a
// chain (client, node, client, node), and on a busy host its rate swung
// more than fourfold between runs (README.md, "Why the fleet is not a
// workload").
//
// Both nodes serve the one engine. The nodes of a fleet hold replicated
// tables, so sharing changes nothing on the lookup path, and it keeps a
// second spinning shard worker out of the thread budget: the engine's
// shard worker, one reactor per node and the client = 4.
#include <memory>
#include <string>
#include <vector>

#include "fleet.h"

#include "cluster/cluster_client.h"
#include "cluster/partitioner.h"
#include "server/server.h"

namespace perfbench {

namespace server = netclust::server;
namespace cluster = netclust::cluster;
using netclust::net::IpAddress;

namespace {

constexpr int kNodes = 2;

/// Share of calls that took over a millisecond.
double SlowShare(const std::vector<double>& call_s) {
  if (call_s.empty()) return 0.0;
  std::size_t slow = 0;
  for (const double s : call_s) slow += s > 1e-3 ? 1 : 0;
  return static_cast<double>(slow) / static_cast<double>(call_s.size());
}

}  // namespace

void SweepFleetLayers(netclust::engine::Engine& engine,
                      const LookupInputs& inputs, double seconds, bool inject,
                      Tracer& tracer, Report& report) {
  std::vector<std::unique_ptr<server::Server>> nodes;
  std::vector<server::NodeInfo> members;
  const auto stop_nodes = [&] {
    for (const auto& node : nodes) node->Stop();
  };
  for (int n = 0; n < kNodes; ++n) {
    server::ServerConfig server_config;
    server_config.reactors = 1;
    server_config.cluster_node_id = n + 1;
    nodes.push_back(std::make_unique<server::Server>(&engine, server_config));
    const auto port = nodes.back()->Serve();
    if (!port.ok()) {
      report.Incorrect("fleet serve: " + port.error());
      stop_nodes();
      return;
    }
    members.push_back(server::NodeInfo{static_cast<std::uint32_t>(n + 1),
                                       IpAddress(127, 0, 0, 1), port.value()});
  }
  netclust::Result<server::Topology> topo = netclust::Fail("unset");
  {
    auto span = tracer.Open("cluster.build_topology");
    topo = cluster::BuildTopology(1, members, inputs.prefixes);
  }
  if (!topo.ok()) {
    report.Incorrect("fleet topology: " + topo.error());
    stop_nodes();
    return;
  }
  for (const auto& node : nodes) {
    const auto installed = node->SetTopology(topo.value());
    if (!installed.ok()) {
      report.Incorrect("fleet install topology: " + installed.error());
      stop_nodes();
      return;
    }
  }
  auto client = cluster::ClusterClient::Create(topo.value());
  if (!client.ok()) {
    report.Incorrect("fleet cluster client: " + client.error());
    stop_nodes();
    return;
  }

  const std::size_t batch = LookupInputs::kBatch;
  const std::size_t frames = inputs.stream.size() / batch;
  std::vector<IpAddress> addresses(batch);
  std::vector<double> call_s;
  std::uint64_t failed = 0;
  const std::int64_t start = NowNs();
  const std::int64_t end = start + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t next = 0; NowNs() < end; ++next) {
    const std::size_t base = (next % frames) * batch;
    addresses.assign(inputs.stream.begin() + static_cast<long>(base),
                     inputs.stream.begin() + static_cast<long>(base + batch));
    const std::int64_t t0 = NowNs();
    const auto records = client.value().BatchLookup(addresses);
    const std::int64_t t1 = NowNs();
    tracer.Add("cluster.batch_lookup", t0, t1);
    if (!records.ok() || records.value().size() != batch) {
      ++failed;
      report.Incorrect("fleet batch lookup failed: " +
                       (records.ok() ? std::string("short reply")
                                     : records.error()));
      continue;
    }
    call_s.push_back(SecondsBetween(t0, t1));
    for (std::size_t j = 0; j < batch; ++j) {
      Answer got = FromRecord(records.value()[j]);
      if (inject && got.found) {
        got = SwappedPrefix(got);
        inject = false;
      }
      if (!(got == inputs.expected[base + j])) {
        report.Incorrect("fleet lookup of " +
                         inputs.stream[base + j].ToString() + " answered " +
                         got.prefix.ToString());
        break;
      }
    }
  }
  const double elapsed_s = SecondsBetween(start, NowNs());
  tracer.Count("cluster.redirects",
               static_cast<double>(client.value().redirects_followed()));
  stop_nodes();

  report.attempted += call_s.size() + failed;
  report.failed += failed;
  std::fprintf(stderr,
               "fleet: %d nodes, %zu shard ranges, %zu batch calls, %.6g "
               "lookups/s over %.1f s, median call %.1f us (%.6g lookups/s "
               "at that time), %.1f%% of calls over 1 ms\n",
               kNodes, topo.value().ranges.size(), call_s.size(),
               static_cast<double>(call_s.size() * batch) / elapsed_s,
               elapsed_s, Median(call_s) * 1e6,
               static_cast<double>(batch) / Median(call_s),
               100.0 * SlowShare(call_s));
}

}  // namespace perfbench
