#include "inputs.h"

#include <algorithm>
#include <array>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/metrics.h"
#include "synth/rng.h"
#include "synth/vantage.h"
#include "synth/workload.h"

namespace perfbench {

using netclust::bgp::Snapshot;
using netclust::bgp::SourceKind;
using netclust::net::IpAddress;
using netclust::net::Prefix;
namespace synth = netclust::synth;

synth::InternetConfig PaperInternetConfig(std::uint64_t seed) {
  // The paper-scale scenario of the repository's benches (NETCLUST_SCALE
  // = 1): 48k allocations, of which the 14 vantage points see a merged
  // table of about 48k distinct prefixes.
  synth::InternetConfig config;
  config.seed = synth::Mix64(seed ^ 0x5041504552ull);
  config.allocation_count = 48000;
  config.bgp_dark_org_fraction = 0.015;
  config.unregistered_fraction = 0.12;
  return config;
}

PaperWorld MakePaperWorld(std::uint64_t seed) {
  synth::Internet internet = synth::GenerateInternet(PaperInternetConfig(seed));
  std::vector<Snapshot> snapshots;
  {
    const synth::VantageGenerator vantages(internet,
                                           synth::DefaultVantageProfiles());
    snapshots = vantages.AllSnapshots(0);
  }
  return PaperWorld{std::move(internet), std::move(snapshots)};
}

ReferenceLpm ReferenceFor(const std::vector<Snapshot>& snapshots) {
  ReferenceLpm reference;
  std::size_t entries = 0;
  for (const Snapshot& snapshot : snapshots) entries += snapshot.entries.size();
  reference.Reserve(entries);
  for (const Snapshot& snapshot : snapshots) {
    const bool bgp = snapshot.info.kind == SourceKind::kBgpTable;
    for (const auto& entry : snapshot.entries) reference.Add(entry.prefix, bgp);
  }
  return reference;
}

namespace {

// Share of each prefix length in a present-day full IPv4 table, rounded
// to the shape of the per-length counts that the CIDR Report and the
// yearly "BGP in <year>" reviews on the APNIC blog publish for 2023-2024:
// /24 dominates, /22 and /23 follow, and lengths past /24 are rare.
constexpr std::array<std::pair<int, double>, 24> kModernLengthMix{{
    {8, 0.0001},  {9, 0.0001},  {10, 0.0002}, {11, 0.0005}, {12, 0.001},
    {13, 0.002},  {14, 0.004},  {15, 0.006},  {16, 0.013},  {17, 0.008},
    {18, 0.014},  {19, 0.025},  {20, 0.04},   {21, 0.045},  {22, 0.11},
    {23, 0.09},   {24, 0.62},   {25, 0.0005}, {26, 0.0005}, {27, 0.0004},
    {28, 0.0004}, {29, 0.0003}, {30, 0.0003}, {32, 0.0002},
}};

IpAddress RandomUnicast(synth::Rng& rng) {
  for (;;) {
    const auto bits = static_cast<std::uint32_t>(rng.engine()());
    const std::uint32_t first = bits >> 24;
    if (first == 0 || first == 10 || first == 127 || first >= 224) continue;
    return IpAddress(bits);
  }
}

}  // namespace

Snapshot MakeModernTable(std::uint64_t seed, std::size_t count) {
  synth::Rng rng(synth::Mix64(seed ^ 0x4D4F4445524Eull));
  double total = 0.0;
  for (const auto& [length, weight] : kModernLengthMix) total += weight;
  Snapshot snapshot;
  snapshot.info = netclust::bgp::SnapshotInfo{
      "MODERN", "1/1/2024", SourceKind::kBgpTable, "generated full table"};
  snapshot.entries.reserve(count);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(count);
  while (snapshot.entries.size() < count) {
    double pick = rng.Unit() * total;
    int length = 24;
    for (const auto& [candidate, weight] : kModernLengthMix) {
      if (pick < weight) {
        length = candidate;
        break;
      }
      pick -= weight;
    }
    const Prefix prefix(RandomUnicast(rng), length);
    const std::uint64_t key =
        (std::uint64_t{prefix.network().bits()} << 6) | std::uint64_t(length);
    if (!seen.insert(key).second) continue;
    netclust::bgp::RouteEntry entry;
    entry.prefix = prefix;
    entry.as_path = {
        static_cast<netclust::bgp::AsNumber>(1 + rng.Uniform(64000))};
    snapshot.entries.push_back(std::move(entry));
  }
  return snapshot;
}

ClientPopularity NaganoClientPopularity() {
  // The preset as the repository's benches run it by default (scale 0.1,
  // its own seed) on the paper-scale Internet. Its per-client request
  // counts have the same shape at every scale, because clients and
  // requests scale together; the fit does not depend on the run's seed.
  const synth::WorkloadConfig config = synth::NaganoConfig(0.1);
  const synth::GeneratedLog generated = synth::GenerateLog(
      synth::GenerateInternet(PaperInternetConfig(config.seed)), config);
  std::unordered_map<IpAddress, double> requests;
  for (const auto& request : generated.log.requests()) {
    requests[request.client] += 1.0;
  }
  std::vector<double> counts;
  counts.reserve(requests.size());
  for (const auto& [client, count] : requests) counts.push_back(count);
  const netclust::core::ZipfFit fit =
      netclust::core::EstimateZipfExponent(std::move(counts));
  return ClientPopularity{synth::NaganoConfig(1.0).target_clients, fit.alpha,
                          fit.r_squared};
}

std::vector<IpAddress> HostsOf(const std::vector<Prefix>& prefixes,
                               std::size_t count, std::uint64_t seed) {
  synth::Rng rng(synth::Mix64(seed ^ 0x484F535453ull));
  std::vector<IpAddress> hosts;
  hosts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Prefix& prefix = prefixes[rng.Uniform(prefixes.size())];
    const std::uint64_t host = rng.Uniform(prefix.size());
    hosts.push_back(
        IpAddress(prefix.network().bits() | static_cast<std::uint32_t>(host)));
  }
  return hosts;
}

std::vector<IpAddress> MakeClientStream(const std::vector<Prefix>& prefixes,
                                        const ClientPopularity& popularity,
                                        std::size_t count,
                                        std::uint64_t seed) {
  // HostsOf places the population in random order, so the popularity
  // ranking is random with respect to address.
  const std::vector<IpAddress> population =
      HostsOf(prefixes, popularity.clients, seed);
  const synth::ZipfSampler zipf(population.size(), popularity.alpha);
  synth::Rng rng(synth::Mix64(seed ^ 0x434C49454E54ull));
  std::vector<IpAddress> stream;
  stream.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    stream.push_back(population[zipf.Sample(rng)]);
  }
  return stream;
}

netclust::bgp::UpdateMessage Flap::First() const {
  netclust::bgp::UpdateMessage update;
  update.next_hop = IpAddress(192, 0, 2, 1);
  if (withdraw_first) {
    update.withdrawn = {prefix};
  } else {
    update.announced = {prefix};
    update.as_path = {origin};
  }
  return update;
}

netclust::bgp::UpdateMessage Flap::Second() const {
  netclust::bgp::UpdateMessage update;
  update.next_hop = IpAddress(192, 0, 2, 1);
  if (withdraw_first) {
    update.announced = {prefix};
    update.as_path = {origin};
  } else {
    update.withdrawn = {prefix};
  }
  return update;
}

std::vector<Flap> MakeFlaps(const std::vector<Snapshot>& snapshots,
                            const ReferenceLpm& seed_reference,
                            std::size_t count, std::uint64_t seed) {
  synth::Rng rng(synth::Mix64(seed ^ 0x464C4150ull));

  // Withdraw-first candidates: prefixes exactly one snapshot holds, that
  // snapshot a BGP table, with an origin that survives the wire's 2-byte
  // AS_PATH — re-announcing such a prefix restores its seed attribution.
  // Only /16 and longer qualify: like the announce-first /24s, each then
  // repaints one /16 slot of the flat directory, so flaps cost alike.
  struct Seen {
    int source = -1;
    int holders = 0;
    netclust::bgp::AsNumber origin = 0;
  };
  std::map<Prefix, Seen> seen;
  for (std::size_t s = 0; s < snapshots.size(); ++s) {
    for (const auto& entry : snapshots[s].entries) {
      Seen& info = seen[entry.prefix];
      ++info.holders;
      info.source = static_cast<int>(s);
      info.origin = entry.as_path.empty() ? 0 : entry.as_path.back();
    }
  }
  std::vector<Flap> withdraw_first;
  std::vector<Prefix> covering;  // shorter prefixes that can host a /24
  for (const auto& [prefix, info] : seen) {
    if (prefix.length() < 24) covering.push_back(prefix);
    if (info.holders != 1 || info.origin == 0 || info.origin > 0xFFFF ||
        prefix.length() < 16) {
      continue;
    }
    if (snapshots[static_cast<std::size_t>(info.source)].info.kind !=
        SourceKind::kBgpTable) {
      continue;
    }
    withdraw_first.push_back(Flap{prefix, true, info.source, info.origin});
  }

  int bgp_source = 0;
  while (snapshots[static_cast<std::size_t>(bgp_source)].info.kind !=
         SourceKind::kBgpTable) {
    ++bgp_source;
  }

  // Half the flaps withdraw a seeded prefix, half announce an absent /24
  // (all of them if too few prefixes qualify); the two kinds alternate.
  std::shuffle(withdraw_first.begin(), withdraw_first.end(), rng.engine());
  if (withdraw_first.size() > count / 2) withdraw_first.resize(count / 2);
  std::vector<Flap> announce_first;
  std::unordered_set<std::uint64_t> chosen;
  while (announce_first.size() < count - withdraw_first.size()) {
    // An absent /24 under an existing shorter prefix, so the flap moves
    // the answer for the addresses it covers.
    const Prefix& parent = covering[rng.Uniform(covering.size())];
    const std::uint64_t slot =
        rng.Uniform(std::uint64_t{1} << (24 - parent.length()));
    const Prefix slash24(IpAddress(parent.network().bits() |
                                   static_cast<std::uint32_t>(slot << 8)),
                         24);
    if (seed_reference.Contains(slash24) ||
        !chosen.insert(slash24.network().bits()).second) {
      continue;
    }
    announce_first.push_back(Flap{
        slash24, false, bgp_source,
        static_cast<netclust::bgp::AsNumber>(64512 + rng.Uniform(1000))});
  }
  std::vector<Flap> flaps;
  for (std::size_t i = 0; flaps.size() < count; ++i) {
    if (i < withdraw_first.size()) flaps.push_back(withdraw_first[i]);
    if (i < announce_first.size()) flaps.push_back(announce_first[i]);
  }
  flaps.resize(count);
  return flaps;
}

LookupInputs MakeLookupInputs(std::uint64_t seed) {
  LookupInputs inputs;
  inputs.table = MakeModernTable(seed, LookupInputs::kTablePrefixes);
  ReferenceLpm reference;
  reference.Reserve(inputs.table.entries.size());
  inputs.prefixes.reserve(inputs.table.entries.size());
  for (const auto& entry : inputs.table.entries) {
    inputs.prefixes.push_back(entry.prefix);
    reference.Add(entry.prefix, /*bgp=*/true);
  }
  inputs.popularity = NaganoClientPopularity();
  inputs.stream = MakeClientStream(inputs.prefixes, inputs.popularity,
                                   LookupInputs::kStreamAddresses, seed);
  inputs.expected.reserve(inputs.stream.size());
  for (const IpAddress address : inputs.stream) {
    inputs.expected.push_back(reference.Resolve(address));
  }
  return inputs;
}

std::size_t DistinctAddresses(std::vector<IpAddress> addresses) {
  std::sort(addresses.begin(), addresses.end());
  return static_cast<std::size_t>(
      std::unique(addresses.begin(), addresses.end()) - addresses.begin());
}

std::vector<Prefix> DistinctPrefixes(const std::vector<Snapshot>& snapshots) {
  std::vector<Prefix> prefixes;
  for (const Snapshot& snapshot : snapshots) {
    for (const auto& entry : snapshot.entries) prefixes.push_back(entry.prefix);
  }
  std::sort(prefixes.begin(), prefixes.end());
  prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                 prefixes.end());
  return prefixes;
}

}  // namespace perfbench
