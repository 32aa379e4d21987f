// serve_lookup: netclustd (server::Server over a started engine::Engine)
// on loopback, answering a ~1M-prefix table. Two phases, alternating in
// slices of about a second, one process:
//
//   throughput — closed-loop BATCH_LOOKUP frames of 256 addresses, 8 in
//     flight on each of 2 connections, one connection per reactor (a
//     connection the kernel places on an occupied reactor is replaced);
//   probe — one connection, single-address LOOKUPs, one in flight.
//
// Busy threads: the engine's shard worker (it spins while idle), two
// reactors and the one load-generator thread = 4. Nothing is published
// after set-up, so the work sits in the server codec and reactor,
// Engine::LookupBatch and trie::FlatLpm.
//
// The traced run then sweeps the same stream through each lookup layer
// in turn, and through a 2-node fleet over the same engine (fleet.cc).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "fleet.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace server = netclust::server;
using netclust::net::IpAddress;

namespace {

constexpr std::size_t kDepth = 8;
constexpr int kReactors = 2;

/// Traced-run layer sweep: the same address stream through each layer of
/// the lookup path in turn, called directly from here.
void SweepLookupLayers(const LookupInputs& inputs, const FrameSet& frames,
                       const netclust::engine::Engine& engine,
                       Tracer& tracer) {
  const netclust::bgp::TableHandle handle = engine.AcquireTable();
  const auto& flat = handle.flat();
  const auto& stream = inputs.stream;
  const std::size_t n = stream.size();
  const std::size_t batch = LookupInputs::kBatch;
  std::size_t found = 0;
  for (int pass = 0; pass < 3; ++pass) {
    {
      auto span = tracer.Open("trie.flat_lookup", n);
      for (const IpAddress address : stream) {
        found += flat.LongestMatch(address).has_value() ? 1 : 0;
      }
    }
    {
      std::vector<netclust::bgp::PrefixTable::Flat::Match> out(batch);
      auto span = tracer.Open("trie.flat_batch", n);
      for (std::size_t i = 0; i + batch <= n; i += batch) {
        flat.LookupBatch(std::span(stream).subspan(i, batch), out);
        found += out[0].value != nullptr ? 1 : 0;
      }
    }
    {
      std::vector<std::optional<netclust::bgp::PrefixTable::Match>> out(batch);
      auto span = tracer.Open("engine.lookup_batch", n);
      for (std::size_t i = 0; i + batch <= n; i += batch) {
        found += engine.LookupBatch(std::span(stream).subspan(i, batch), out);
      }
    }
    {
      // A reactor decodes each request frame's payload in place.
      std::vector<IpAddress> decoded;
      auto span = tracer.Open("server.decode_request", n);
      for (const auto& wire : frames.frames) {
        const auto count = server::DecodeBatchLookupInto(
            wire.data() + server::kHeaderSize,
            wire.size() - server::kHeaderSize, &decoded);
        found += count.ok() ? count.value() : 0;
      }
    }
    {
      std::vector<std::optional<netclust::bgp::PrefixTable::Match>> matches(
          batch);
      engine.LookupBatch(std::span(stream).subspan(0, batch), matches);
      std::vector<std::uint8_t> wire;
      auto span = tracer.Open("server.encode_batch", n);
      for (std::size_t i = 0; i + batch <= n; i += batch) {
        wire.clear();
        server::AppendBatchResultFrame(matches.data(), batch, &wire);
      }
      found += wire.size() != 0 ? 1 : 0;
    }
  }
  {
    const std::size_t sample = n / 4;
    auto span = tracer.Open("trie.patricia_lookup", sample);
    for (std::size_t i = 0; i < sample; ++i) {
      found += handle->LongestMatch(stream[i]).has_value() ? 1 : 0;
    }
  }
  {
    auto span = tracer.Open("bgp.compile_flat");
    const auto compiled = handle->CompileFlat();
    found += compiled.size() != 0 ? 1 : 0;
  }
  tracer.Count("bgp.directory_bytes",
               static_cast<double>(flat.directory_bytes()));
  tracer.Count("sweep.found", static_cast<double>(found));
}

}  // namespace

void RunServeLookup(const Options& options, std::int64_t start_ns,
                    Tracer& tracer, Report& report) {
  const std::int64_t inputs_start = NowNs();
  LookupInputs inputs = MakeLookupInputs(options.seed);
  const FrameSet frames = EncodeFrames(inputs.stream, LookupInputs::kBatch);
  const std::int64_t inputs_ns = NowNs() - inputs_start;

  netclust::engine::EngineConfig config;
  config.shards = 1;
  config.log_name = "serve_lookup";
  netclust::engine::Engine engine(config);
  {
    auto span = tracer.Open("engine.seed");
    engine.SeedSnapshot(inputs.table);
  }
  inputs.table = {};  // the engine holds its own copy
  engine.Start();

  server::ServerConfig server_config;
  server_config.reactors = kReactors;
  auto daemon = std::make_unique<server::Server>(&engine, server_config);
  const auto port = daemon->Serve();
  if (!port.ok()) {
    report.Incorrect("serve: " + port.error());
    engine.Stop();
    return;
  }
  auto conns = ConnectOnePerReactor(*daemon);
  auto probe = server::Client::Connect("127.0.0.1", port.value());
  if (!conns.ok() || !probe.ok()) {
    report.Incorrect("connect: " +
                     (conns.ok() ? probe.error() : conns.error()));
    daemon->Stop();
    engine.Stop();
    return;
  }
  const double setup_s = SecondsBetween(start_ns + inputs_ns, NowNs());

  bool inject = options.inject == "swap-prefix";
  const ReplyCheck check =
      [&](std::size_t frame,
          const std::vector<server::LookupRecord>& records) {
        const std::size_t base = frame * LookupInputs::kBatch;
        for (std::size_t j = 0; j < records.size(); ++j) {
          Answer got = FromRecord(records[j]);
          if (inject && got.found) {
            got = SwappedPrefix(got);
            inject = false;
          }
          if (!(got == inputs.expected[base + j])) {
            report.Incorrect("lookup of " +
                             inputs.stream[base + j].ToString() +
                             " answered " + got.prefix.ToString());
            return;
          }
        }
      };

  // Warm-up (not measured): faults in the directory pages and the
  // reactors' batch buffers.
  const double total_ns = options.seconds * 1e9;
  const std::int64_t warm_end =
      NowNs() + static_cast<std::int64_t>(0.05 * total_ns);
  PipelineStats warm =
      RunPipeline(conns.value(), frames, kDepth, warm_end, check, nullptr,
                  nullptr);

  // The throughput and probe phases alternate in slices of about a
  // second (two thirds pipelined, one third probes), so both figures
  // sample the whole run rather than one stretch of it each.
  const auto slices = static_cast<std::size_t>(
      std::max(1.0, std::round(0.9 * options.seconds)));
  const double slice_ns = 0.9 * total_ns / static_cast<double>(slices);
  PipelineStats tp;
  std::vector<double> slice_rates;
  double client_busy_sum = 0.0;
  std::vector<double> rtt_us;
  std::uint64_t probe_failed = 0;
  std::size_t cursor = 0;
  for (std::size_t slice = 0; slice < slices; ++slice) {
    const std::int64_t tp_start = NowNs();
    const PipelineStats part = RunPipeline(
        conns.value(), frames, kDepth,
        tp_start + static_cast<std::int64_t>(slice_ns * 2.0 / 3.0), check,
        nullptr, tracer.enabled() ? &tracer : nullptr,
        "serve.frame_pipelined");
    const std::int64_t tp_end = NowNs();
    slice_rates.push_back(static_cast<double>(part.lookups) /
                          SecondsBetween(tp_start, tp_end));
    tp.frames += part.frames;
    tp.lookups += part.lookups;
    tp.refused += part.refused;
    client_busy_sum += part.client_busy;
    if (tp.first_error.empty()) tp.first_error = part.first_error;

    // Probe: one address per frame, one frame in flight.
    const std::int64_t probe_end =
        NowNs() + static_cast<std::int64_t>(slice_ns / 3.0);
    while (NowNs() < probe_end) {
      const std::size_t i = cursor++ % inputs.stream.size();
      const std::int64_t t0 = NowNs();
      const auto record = probe.value().Lookup(inputs.stream[i]);
      const std::int64_t t1 = NowNs();
      if (!record.ok()) {
        ++probe_failed;
        report.Incorrect("probe lookup failed: " + record.error());
        continue;
      }
      rtt_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (!(FromRecord(record.value()) == inputs.expected[i])) {
        report.Incorrect("probe lookup of " + inputs.stream[i].ToString() +
                         " answered " + record.value().prefix.ToString());
      }
    }
  }
  tp.client_busy = client_busy_sum / static_cast<double>(slices);

  if (tracer.enabled()) {
    // Frame round trip unamortized by pipelining: one 256-address frame
    // in flight on one connection.
    std::vector<RawConn> one;
    one.push_back(std::move(conns.value()[0]));
    RunPipeline(one, frames, 1, NowNs() + 500'000'000, check, nullptr,
                &tracer, "server.frame_rtt");
    SweepLookupLayers(inputs, frames, engine, tracer);
    SweepFleetLayers(engine, inputs, 0.1 * options.seconds,
                     options.inject == "fleet-swap-prefix", tracer, report);
  }
  std::uint64_t short_writes = 0;
  for (std::size_t i = 0; i < daemon->reactor_count(); ++i) {
    short_writes += daemon->reactor_metrics(i).short_writes.value();
  }
  const std::uint64_t busy_replies = daemon->metrics().busy_replies.value();
  daemon->Stop();
  engine.Stop();

  for (const PipelineStats* stats : {&warm, &tp}) {
    report.attempted += stats->frames + stats->refused;
    report.failed += stats->refused;
    if (!stats->first_error.empty()) {
      report.Incorrect("pipelined lookups: " + stats->first_error);
    }
  }
  report.attempted += rtt_us.size() + probe_failed;
  report.failed += probe_failed;

  const double lookups_per_s = TrimmedMean(slice_rates, kTrim);
  const double latency_ms = TrimmedMean(rtt_us, kTrim) / 1e3;
  if (tracer.enabled()) {
    report.SpanMetric(tracer, "engine.seed", "ms");
    report.SpanMetric(tracer, "bgp.compile_flat", "ms");
    report.Metric("bgp.directory_bytes", tracer.count("bgp.directory_bytes"),
                  "bytes");
    report.SpanMetric(tracer, "trie.patricia_lookup", "ns");
    report.SpanMetric(tracer, "trie.flat_lookup", "ns");
    report.SpanMetric(tracer, "trie.flat_batch", "ns");
    report.SpanMetric(tracer, "engine.lookup_batch", "ns");
    report.SpanMetric(tracer, "server.decode_request", "ns");
    report.SpanMetric(tracer, "server.encode_batch", "ns");
    report.SpanMetric(tracer, "server.decode_result", "ns");
    report.SpanMetric(tracer, "server.frame_rtt", "us");
    report.Metric("server.busy_replies", static_cast<double>(busy_replies),
                  "count");
    report.Metric("server.short_writes", static_cast<double>(short_writes),
                  "count");
    report.SpanMetric(tracer, "cluster.build_topology", "ms");
    report.SpanMetric(tracer, "cluster.batch_lookup", "us");
    report.Metric("cluster.redirects", tracer.count("cluster.redirects"),
                  "count");
    std::fprintf(stderr,
                 "serve_lookup (traced): lookups_per_s %.6g "
                 "latency_ms %.6f\n",
                 lookups_per_s, latency_ms);
  } else {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report.Metric("lookups_per_s", lookups_per_s, "1/s");
    report.Metric("latency_ms", latency_ms, "ms");
  }
  // The p99 round trip did not hold within any allowed bound from run to
  // run (README.md, "rtt_p99_us"), so it is logged, not reported.
  std::fprintf(stderr,
               "serve_lookup: %zu-prefix table, %zu-address stream over %zu "
               "distinct clients (Zipf %.4f, R^2 %.3f), inputs %.3f s, "
               "set-up %.3f s, %llu pipelined frames in %zu slices (load "
               "generator %.0f%% busy), %zu probes, rtt_p50_us %.4f, "
               "rtt_p99_us %.4f\n",
               LookupInputs::kTablePrefixes, inputs.stream.size(),
               DistinctAddresses(inputs.stream), inputs.popularity.alpha,
               inputs.popularity.r_squared,
               static_cast<double>(inputs_ns) / 1e9, setup_s,
               static_cast<unsigned long long>(tp.frames),
               slices, 100.0 * tp.client_busy, rtt_us.size(),
               Median(rtt_us), Percentile(rtt_us, 0.99));
}

}  // namespace perfbench
