#include "pfs/stripe.hpp"

#include <algorithm>

namespace sio::pfs {

std::vector<StripeSegment> StripeLayout::map(std::uint64_t offset, std::uint64_t length) const {
  std::vector<StripeSegment> out;
  std::uint64_t pos = offset;
  std::uint64_t remaining = length;
  while (remaining > 0) {
    const std::uint64_t take = std::min(remaining, unit_ - pos % unit_);
    out.push_back(segment(pos, take));
    pos += take;
    remaining -= take;
  }
  return out;
}

int StripeLayout::spread(std::uint64_t offset, std::uint64_t length) const {
  const auto segs = map(offset, length);
  std::vector<int> nodes;
  for (const auto& s : segs) nodes.push_back(s.io_node);
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return static_cast<int>(nodes.size());
}

}  // namespace sio::pfs
