// The benchmark's own longest-prefix match, kept apart from every lookup
// structure in src/ (Patricia trie, flat directory, engine, server). It
// holds each prefix as an exact (network, length) key and answers an
// address by trying every length present, longest first — a brute-force
// scan over lengths rather than a tree walk — and applies the paper's
// §3.1.1 rule: any BGP-table prefix beats every network-dump prefix,
// whatever their lengths.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

#include "net/ip_address.h"
#include "net/prefix.h"
#include "server/proto.h"

namespace perfbench {

struct Answer {
  bool found = false;
  netclust::net::Prefix prefix;
  bool bgp = false;

  friend bool operator==(const Answer&, const Answer&) = default;
};

/// The parts of a wire LookupRecord the reference can vouch for.
[[nodiscard]] Answer FromRecord(const netclust::server::LookupRecord& record);

/// A found answer with its prefix one bit shorter: the wrong answer the
/// self-test (--inject swap-prefix) feeds a lookup checker.
[[nodiscard]] Answer SwappedPrefix(const Answer& right);

class ReferenceLpm {
 public:
  void Add(const netclust::net::Prefix& prefix, bool bgp);
  void Reserve(std::size_t prefixes);

  /// Longest match under the §3.1.1 rule.
  [[nodiscard]] Answer Resolve(netclust::net::IpAddress address) const;

  /// Resolve() as if `without` were absent from the table and `with`
  /// (a BGP prefix) were present: the state of the table while one flap
  /// is half done.
  [[nodiscard]] Answer ResolveToggled(
      netclust::net::IpAddress address,
      const std::optional<netclust::net::Prefix>& without,
      const std::optional<netclust::net::Prefix>& with) const;

  [[nodiscard]] bool Contains(const netclust::net::Prefix& prefix) const;
  [[nodiscard]] std::size_t size() const { return bgp_.size() + dump_.size(); }

 private:
  static std::uint64_t Key(std::uint32_t network, int length) {
    return (std::uint64_t{network} << 6) | static_cast<std::uint64_t>(length);
  }
  [[nodiscard]] static std::optional<netclust::net::Prefix> Longest(
      const std::unordered_set<std::uint64_t>& set, std::uint64_t lengths,
      netclust::net::IpAddress address,
      const std::optional<netclust::net::Prefix>& without);

  std::unordered_set<std::uint64_t> bgp_;
  std::unordered_set<std::uint64_t> dump_;
  // Bit L set when some prefix of length L is present, so Resolve probes
  // only lengths that exist.
  std::uint64_t bgp_lengths_ = 0;
  std::uint64_t dump_lengths_ = 0;
};

}  // namespace perfbench
