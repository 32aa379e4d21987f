// serve_churn: routing writes beside lookups on one reactor, at paper
// scale (the merged table of Table 1's 14 vantage points, ~48k prefixes).
//
//   ingest connection — closed-loop INGEST_UPDATE flaps (withdraw and
//     re-announce a seeded prefix, or announce and withdraw an absent
//     /24), so the table is back at its seed after every pair;
//   lookup connection — closed-loop BATCH_LOOKUP frames of 256 addresses,
//     32 in flight, on the same reactor, for the same window.
//
// Busy threads: the engine's spinning shard worker, the reactor, the
// lookup client, and the server's ingest thread, which runs while the
// reactor waits for it (the ingest client only waits) = 4. The work sits
// on the publish path (PrefixTable clone, CompileFlatDelta, RCU publish)
// and in the reactor's blocking wait for each ingest ack.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "inputs.h"
#include "server/client.h"
#include "server/server.h"
#include "wire.h"
#include "workloads.h"

namespace perfbench {

namespace server = netclust::server;
using netclust::net::IpAddress;
using netclust::net::Prefix;

namespace {

// A small flap set, cycled several times in a run, so every run averages
// over the same updates whatever its length.
constexpr std::size_t kFlaps = 64;
// Lookup frames kept in flight. The reactor blocks for each ingest, so
// the frames that get through are the ones queued when it resumes; a
// deep queue makes that count steady from one ingest to the next.
constexpr std::size_t kLookupDepth = 32;
constexpr std::size_t kStreamAddresses = std::size_t{1} << 16;
constexpr std::size_t kBatch = 256;
constexpr std::int64_t kWindowNs = 250'000'000;

/// The answers a lookup may legally see while the flaps run: the seed's,
/// or — for an address under a flapped prefix — the seed with that one
/// flap half done (flaps run one at a time, and a batch reads one table
/// version).
struct Allowed {
  std::vector<Answer> seed;           // per stream position
  std::vector<std::uint32_t> offset;  // per position, into `alternatives`
  std::vector<Answer> alternatives;

  [[nodiscard]] bool Accepts(std::size_t i, const Answer& got) const {
    if (got == seed[i]) return true;
    for (std::uint32_t k = offset[i]; k < offset[i + 1]; ++k) {
      if (got == alternatives[k]) return true;
    }
    return false;
  }
};

std::vector<IpAddress> MakeStream(const std::vector<Prefix>& table,
                                  const ClientPopularity& popularity,
                                  const std::vector<Flap>& flaps,
                                  std::uint64_t seed) {
  // Three addresses in four are client requests with the Nagano log's
  // popularity over the table, the fourth a host under a flapped prefix,
  // so the lookups see the churn they run beside.
  std::vector<Prefix> flapped;
  for (const Flap& flap : flaps) flapped.push_back(flap.prefix);
  const std::vector<IpAddress> general =
      MakeClientStream(table, popularity, kStreamAddresses, seed);
  const std::vector<IpAddress> under =
      HostsOf(flapped, kStreamAddresses / 4, seed + 1);
  std::vector<IpAddress> stream;
  stream.reserve(kStreamAddresses);
  for (std::size_t i = 0; i < kStreamAddresses; ++i) {
    stream.push_back(i % 4 == 0 ? under[i / 4] : general[i]);
  }
  return stream;
}

Allowed MakeAllowed(const std::vector<IpAddress>& stream,
                    const std::vector<Flap>& flaps,
                    const ReferenceLpm& reference) {
  Allowed allowed;
  allowed.offset.push_back(0);
  for (const IpAddress address : stream) {
    allowed.seed.push_back(reference.Resolve(address));
    for (const Flap& flap : flaps) {
      if (!flap.prefix.Contains(address)) continue;
      allowed.alternatives.push_back(
          flap.withdraw_first
              ? reference.ResolveToggled(address, flap.prefix, std::nullopt)
              : reference.ResolveToggled(address, std::nullopt, flap.prefix));
    }
    allowed.offset.push_back(
        static_cast<std::uint32_t>(allowed.alternatives.size()));
  }
  return allowed;
}

struct IngestResult {
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::uint64_t version_skips = 0;  // acks whose version did not advance by 1
  std::string first_error;
  std::vector<double> ack_us;  // acks sent after the warm-up
};

/// The deliberate wrong endings the self-test gives the ingest run.
enum class IngestFault {
  kNone,
  /// One more flap's first half is sent and never undone.
  kUnrestoredFlap,
  /// One more withdraw-first flap is re-announced from another BGP
  /// source: the prefix is back, under the wrong source.
  kWrongSource,
};

/// The ingest connection: whole flap pairs until `end_ns`, then the
/// self-test's `fault`, if any. `wrong_source` is a BGP source id that
/// holds none of the withdraw-first flaps.
void RunIngest(server::Client& client, const std::vector<Flap>& flaps,
               std::uint64_t start_version, std::int64_t measure_ns,
               std::int64_t end_ns,
               IngestFault fault, int wrong_source, WindowedRate& rate,
               Tracer& tracer, IngestResult& out) {
  std::uint64_t version = start_version;
  const auto send = [&](const netclust::bgp::UpdateMessage& update,
                        int source) {
    const std::int64_t t0 = NowNs();
    const auto ack =
        client.IngestUpdate(static_cast<std::uint32_t>(source), update);
    const std::int64_t t1 = NowNs();
    if (!ack.ok()) {
      ++out.failed;
      if (out.first_error.empty()) out.first_error = ack.error();
      return;
    }
    ++out.acked;
    if (t0 >= measure_ns) {
      out.ack_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    tracer.Add("server.ingest_ack", t0, t1);
    rate.Add(t1, 1);
    if (ack.value().table_version != version + 1) ++out.version_skips;
    version = ack.value().table_version;
  };
  std::size_t next = 0;
  while (NowNs() < end_ns) {
    const Flap& flap = flaps[next++ % flaps.size()];
    send(flap.First(), flap.source);
    send(flap.Second(), flap.source);
  }
  if (fault == IngestFault::kUnrestoredFlap) {
    const Flap& flap = flaps[next % flaps.size()];
    send(flap.First(), flap.source);
  } else if (fault == IngestFault::kWrongSource) {
    const auto flap =
        std::find_if(flaps.begin(), flaps.end(),
                     [](const Flap& f) { return f.withdraw_first; });
    if (flap != flaps.end()) {
      send(flap->First(), flap->source);
      send(flap->Second(), wrong_source);
    }
  }
}

/// Compares the served table with the seed table over `probes` and over
/// each seed prefix's first and last address, by the full
/// PrefixTable::Match (prefix, kind, source mask, origin AS), and each
/// seed prefix's origin AS. Returns the first difference, or "".
std::string CompareWithSeed(const netclust::bgp::PrefixTable& seed,
                            const netclust::bgp::PrefixTable& served,
                            const std::vector<Prefix>& seed_prefixes,
                            const std::vector<IpAddress>& probes) {
  const auto differs = [&](IpAddress address) {
    return seed.LongestMatch(address) != served.LongestMatch(address);
  };
  for (const Prefix& prefix : seed_prefixes) {
    if (seed.OriginAs(prefix) != served.OriginAs(prefix)) {
      return prefix.ToString() + " has another origin AS than in the seed";
    }
    const IpAddress last(prefix.network().bits() |
                         static_cast<std::uint32_t>(prefix.size() - 1));
    for (const IpAddress address : {prefix.network(), last}) {
      if (differs(address)) {
        return address.ToString() + " does not match as in the seed";
      }
    }
  }
  for (const IpAddress address : probes) {
    if (differs(address)) {
      return address.ToString() + " does not match as in the seed";
    }
  }
  return "";
}

/// Traced-run layer sweep over the publish path, on the engine the server
/// used (the server is stopped, so this thread is its ingest caller now).
/// Every flap applied here is undone again.
void SweepPublishLayers(netclust::engine::Engine& engine,
                        const std::vector<Flap>& flaps, Tracer& tracer) {
  const netclust::bgp::TableHandle handle = engine.AcquireTable();
  // The served directory after the run's delta publishes, orphaned
  // blocks included.
  tracer.Count("bgp.directory_bytes",
               static_cast<double>(handle.flat().directory_bytes()));
  for (int rep = 0; rep < 20; ++rep) {
    auto span = tracer.Open("bgp.table_clone");
    const netclust::bgp::PrefixTable copy = *handle;
    tracer.Count("bgp.table_prefixes", static_cast<double>(copy.size()));
  }
  netclust::bgp::PrefixTable work = *handle;
  for (std::size_t k = 0; k < 40; ++k) {
    const Flap& flap = flaps[k % flaps.size()];
    if (flap.withdraw_first) {
      work.Remove(flap.prefix);
    } else {
      work.Insert(flap.prefix, flap.source, flap.origin);
    }
    {
      const std::vector<Prefix> changed{flap.prefix};
      auto span = tracer.Open("bgp.compile_delta");
      const auto flat = work.CompileFlatDelta(handle.flat(), changed);
      tracer.Count("bgp.delta_directory_bytes",
                   static_cast<double>(flat.directory_bytes()));
    }
    if (flap.withdraw_first) {
      work.Insert(flap.prefix, flap.source, flap.origin);
    } else {
      work.Remove(flap.prefix);
    }
  }
  for (std::size_t k = 0; k < 40; ++k) {
    const Flap& flap = flaps[k % flaps.size()];
    for (const auto& update : {flap.First(), flap.Second()}) {
      auto span = tracer.Open("engine.apply_update");
      engine.ApplyUpdate(update, flap.source);
    }
  }
}

}  // namespace

void RunServeChurn(const Options& options, std::int64_t start_ns,
                   Tracer& tracer, Report& report) {
  const std::int64_t inputs_start = NowNs();
  const PaperWorld world = MakePaperWorld(options.seed);
  const ReferenceLpm reference = ReferenceFor(world.snapshots);
  const std::vector<Prefix> seed_prefixes = DistinctPrefixes(world.snapshots);
  const std::vector<Flap> flaps =
      MakeFlaps(world.snapshots, reference, kFlaps, options.seed);
  const ClientPopularity popularity = NaganoClientPopularity();
  const std::vector<IpAddress> stream =
      MakeStream(seed_prefixes, popularity, flaps, options.seed);
  const Allowed allowed = MakeAllowed(stream, flaps, reference);
  const FrameSet frames = EncodeFrames(stream, kBatch);
  // The self-test's wrong source: a BGP table that holds none of the
  // withdraw-first flaps (each of which exactly one source holds).
  int wrong_source = -1;
  for (std::size_t s = 0; s < world.snapshots.size() && wrong_source < 0;
       ++s) {
    if (world.snapshots[s].info.kind != netclust::bgp::SourceKind::kBgpTable) {
      continue;
    }
    if (std::none_of(flaps.begin(), flaps.end(), [&](const Flap& flap) {
          return flap.withdraw_first && flap.source == static_cast<int>(s);
        })) {
      wrong_source = static_cast<int>(s);
    }
  }
  const std::int64_t inputs_ns = NowNs() - inputs_start;

  netclust::engine::EngineConfig config;
  config.shards = 1;
  config.log_name = "serve_churn";
  netclust::engine::Engine engine(config);
  {
    auto span = tracer.Open("engine.seed");
    for (const auto& snapshot : world.snapshots) engine.SeedSnapshot(snapshot);
  }
  engine.Start();
  const std::uint64_t seed_version = engine.table_version();
  // Held to the end of the run, for the check that the served table is
  // the seed again.
  const netclust::bgp::TableHandle seed_table = engine.AcquireTable();

  server::ServerConfig server_config;
  server_config.reactors = 1;
  server_config.source_count = static_cast<int>(world.snapshots.size());
  auto daemon = std::make_unique<server::Server>(&engine, server_config);
  const auto port = daemon->Serve();
  if (!port.ok()) {
    report.Incorrect("serve: " + port.error());
    engine.Stop();
    return;
  }
  auto ingest_client = server::Client::Connect("127.0.0.1", port.value());
  auto lookup_conn = RawConn::Connect(port.value());
  if (!ingest_client.ok() || !lookup_conn.ok()) {
    report.Incorrect("connect: " + (ingest_client.ok()
                                        ? lookup_conn.error()
                                        : ingest_client.error()));
    daemon->Stop();
    engine.Stop();
    return;
  }
  std::vector<RawConn> lookup_conns;
  lookup_conns.push_back(std::move(lookup_conn.value()));
  const double setup_s = SecondsBetween(start_ns + inputs_ns, NowNs());

  bool inject = options.inject == "swap-prefix";
  std::uint64_t out_of_flap_wrong = 0;
  const ReplyCheck check =
      [&](std::size_t frame,
          const std::vector<server::LookupRecord>& records) {
        const std::size_t base = frame * kBatch;
        for (std::size_t j = 0; j < records.size(); ++j) {
          Answer got = FromRecord(records[j]);
          if (inject && got.found) {
            got = SwappedPrefix(got);
            inject = false;
          }
          if (!allowed.Accepts(base + j, got)) {
            if (allowed.offset[base + j] == allowed.offset[base + j + 1]) {
              ++out_of_flap_wrong;
            }
            report.Incorrect("lookup of " + stream[base + j].ToString() +
                             " during churn answered " + got.prefix.ToString());
            return;
          }
        }
      };

  const std::int64_t run_start = NowNs();
  const std::int64_t run_end =
      run_start + static_cast<std::int64_t>(options.seconds * 1e9);
  // The first quarter warms up and is not counted: the first publishes
  // after the seed run markedly faster than the steady state (72 acks in
  // the first second against 34-43 in each later one, in a 20 s trace).
  const std::int64_t measure_start =
      run_start + static_cast<std::int64_t>(0.25 * options.seconds * 1e9);
  WindowedRate ingest_rate(measure_start, kWindowNs);
  WindowedRate lookup_rate(measure_start, kWindowNs);
  IngestResult ingest;
  std::thread ingest_thread([&] {
    const IngestFault fault = options.inject == "unrestored-flap"
                                  ? IngestFault::kUnrestoredFlap
                              : options.inject == "wrong-source"
                                  ? IngestFault::kWrongSource
                                  : IngestFault::kNone;
    RunIngest(ingest_client.value(), flaps, seed_version, measure_start,
              run_end, fault,
              wrong_source, ingest_rate, tracer, ingest);
  });
  const PipelineStats lookups =
      RunPipeline(lookup_conns, frames, kLookupDepth, run_end, check,
                  &lookup_rate, tracer.enabled() ? &tracer : nullptr,
                  "churn.frame");
  ingest_thread.join();

  // Every update acked, each advancing the version by exactly one.
  report.attempted += ingest.acked + ingest.failed;
  report.failed += ingest.failed;
  if (ingest.failed != 0) {
    report.Incorrect("ingest failed: " + ingest.first_error);
  }
  if (ingest.version_skips != 0) {
    report.Incorrect(std::to_string(ingest.version_skips) +
                     " acks did not advance the table version by one");
  }
  report.attempted += lookups.frames + lookups.refused;
  report.failed += lookups.refused;
  if (!lookups.first_error.empty()) {
    report.Incorrect("lookups during churn: " + lookups.first_error);
  }
  if (out_of_flap_wrong != 0) {
    report.Incorrect("an address outside every flapped prefix moved");
  }

  // The served table is the seed again: the same prefix set, every seed
  // prefix with its seed source mask and origin AS, and every stream
  // address answering as in the seed over the wire.
  const netclust::bgp::TableHandle final_table = engine.AcquireTable();
  std::vector<Prefix> served = final_table->AllPrefixes();
  std::sort(served.begin(), served.end());
  if (served != seed_prefixes) {
    report.Incorrect("the served table has " + std::to_string(served.size()) +
                     " prefixes after the run, not the seed's " +
                     std::to_string(seed_prefixes.size()));
  }
  const std::string moved =
      CompareWithSeed(*seed_table, *final_table, seed_prefixes, stream);
  if (!moved.empty()) report.Incorrect("after the run " + moved);
  for (std::size_t base = 0; base + kBatch <= stream.size(); base += kBatch) {
    const std::vector<IpAddress> batch(stream.begin() + static_cast<long>(base),
                                       stream.begin() +
                                           static_cast<long>(base + kBatch));
    const auto records = ingest_client.value().BatchLookup(batch);
    if (!records.ok()) {
      report.Incorrect("final lookup sweep: " + records.error());
      break;
    }
    for (std::size_t j = 0; j < kBatch; ++j) {
      if (!(FromRecord(records.value()[j]) == allowed.seed[base + j])) {
        report.Incorrect("after the run " + stream[base + j].ToString() +
                         " does not resolve as in the seed");
        break;
      }
    }
  }

  daemon->Stop();
  if (tracer.enabled()) SweepPublishLayers(engine, flaps, tracer);
  const auto& metrics = engine.metrics();
  const double delta_publishes =
      static_cast<double>(metrics.delta_publishes.value());
  const double full_publishes =
      static_cast<double>(metrics.full_publishes.value());
  engine.Stop();

  // An ack takes tens of milliseconds at this table size, too few per
  // window for a median window rate to resolve; the mean over the run's
  // closed windows counts every ack. The end-to-end figures are the
  // lookups on the connection beside ingest and the ack time, both as
  // trimmed means.
  const double updates_per_s = ingest_rate.MeanRate(run_end);
  const double churn_lookups_per_s =
      lookup_rate.TrimmedMeanRate(run_end, kTrim);
  const double ack_ms = TrimmedMean(ingest.ack_us, kTrim) / 1e3;
  if (tracer.enabled()) {
    report.SpanMetric(tracer, "engine.seed", "ms");
    report.SpanMetric(tracer, "bgp.table_clone", "us");
    report.SpanMetric(tracer, "bgp.compile_delta", "us");
    report.SpanMetric(tracer, "engine.apply_update", "us");
    report.SpanMetric(tracer, "server.ingest_ack", "us");
    report.SpanMetric(tracer, "server.decode_result", "ns");
    report.Metric("bgp.directory_bytes", tracer.count("bgp.directory_bytes"),
                  "bytes");
    report.Metric("engine.delta_publishes", delta_publishes, "count");
    report.Metric("engine.full_publishes", full_publishes, "count");
    std::fprintf(stderr,
                 "serve_churn (traced): updates_per_s %.6g "
                 "lookups_per_s %.6g latency_ms %.4f\n",
                 updates_per_s, churn_lookups_per_s, ack_ms);
  } else {
    report.Metric("setup_s", setup_s, "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MiB");
    report.Metric("lookups_per_s", churn_lookups_per_s, "1/s");
    report.Metric("latency_ms", ack_ms, "ms");
    std::fprintf(stderr, "serve_churn: updates_per_s %.6g\n", updates_per_s);
  }
  std::fprintf(stderr,
               "serve_churn: %zu-prefix seed from %zu sources, %zu flaps, "
               "%zu-address stream over %zu distinct addresses (Zipf %.4f), "
               "inputs %.3f s, set-up %.3f s, "
               "%llu acks (p50 %.1f us, p99 %.1f us), %llu lookup frames, "
               "%zu windows\n",
               seed_prefixes.size(), world.snapshots.size(), flaps.size(),
               stream.size(), DistinctAddresses(stream), popularity.alpha,
               static_cast<double>(inputs_ns) / 1e9, setup_s,
               static_cast<unsigned long long>(ingest.acked),
               Median(ingest.ack_us), Percentile(ingest.ack_us, 0.99),
               static_cast<unsigned long long>(lookups.frames),
               ingest_rate.windows(run_end));
}

}  // namespace perfbench
