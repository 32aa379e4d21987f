#include "reference.h"

namespace perfbench {

using netclust::net::IpAddress;
using netclust::net::Prefix;

Answer FromRecord(const netclust::server::LookupRecord& record) {
  if (!record.found) return Answer{};
  return Answer{true, record.prefix,
                record.kind == netclust::bgp::SourceKind::kBgpTable};
}

Answer SwappedPrefix(const Answer& right) {
  Answer wrong = right;
  const int length = right.prefix.length();
  wrong.prefix = Prefix(right.prefix.network(), length == 0 ? 1 : length - 1);
  return wrong;
}

void ReferenceLpm::Reserve(std::size_t prefixes) {
  bgp_.reserve(prefixes);
}

void ReferenceLpm::Add(const Prefix& prefix, bool bgp) {
  const std::uint64_t key = Key(prefix.network().bits(), prefix.length());
  const std::uint64_t bit = std::uint64_t{1} << prefix.length();
  if (bgp) {
    bgp_.insert(key);
    bgp_lengths_ |= bit;
  } else {
    dump_.insert(key);
    dump_lengths_ |= bit;
  }
}

bool ReferenceLpm::Contains(const Prefix& prefix) const {
  const std::uint64_t key = Key(prefix.network().bits(), prefix.length());
  return bgp_.count(key) != 0 || dump_.count(key) != 0;
}

std::optional<Prefix> ReferenceLpm::Longest(
    const std::unordered_set<std::uint64_t>& set, std::uint64_t lengths,
    IpAddress address, const std::optional<Prefix>& without) {
  for (int length = 32; length >= 0; --length) {
    if ((lengths & (std::uint64_t{1} << length)) == 0) continue;
    const Prefix candidate(address, length);
    if (without.has_value() && candidate == *without) continue;
    if (set.count(Key(candidate.network().bits(), length)) != 0) {
      return candidate;
    }
  }
  return std::nullopt;
}

Answer ReferenceLpm::Resolve(IpAddress address) const {
  return ResolveToggled(address, std::nullopt, std::nullopt);
}

Answer ReferenceLpm::ResolveToggled(IpAddress address,
                                    const std::optional<Prefix>& without,
                                    const std::optional<Prefix>& with) const {
  std::optional<Prefix> bgp = Longest(bgp_, bgp_lengths_, address, without);
  if (with.has_value() && with->Contains(address) &&
      (!bgp.has_value() || bgp->length() < with->length())) {
    bgp = with;
  }
  if (bgp.has_value()) return Answer{true, *bgp, true};
  const std::optional<Prefix> dump =
      Longest(dump_, dump_lengths_, address, without);
  if (dump.has_value()) return Answer{true, *dump, false};
  return Answer{};
}

}  // namespace perfbench
