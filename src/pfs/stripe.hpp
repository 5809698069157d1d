// File striping layout: byte ranges -> per-I/O-node segments.
//
// PFS stripes every file round-robin across the I/O nodes in fixed units
// (64 KB default on the Paragon).  `StripeLayout` is pure arithmetic: it
// splits a file-relative byte range into segments, each entirely inside one
// stripe unit on one I/O node.  Requests sized in multiples of the stripe
// unit touch the maximum number of arrays in parallel — which is why the
// tuned applications settled on 128 KB (two units) requests.

#pragma once

#include <cstdint>
#include <vector>

#include "sim/assert.hpp"

namespace sio::pfs {

/// One piece of a striped request, contained in a single stripe unit.
struct StripeSegment {
  int io_node = 0;               ///< Which I/O node holds the unit.
  std::uint64_t unit_index = 0;  ///< Global stripe-unit index within the file.
  std::uint64_t offset_in_unit = 0;
  std::uint64_t length = 0;
  std::uint64_t file_offset = 0;  ///< Where this segment starts in the file.
};

class StripeLayout {
 public:
  StripeLayout(std::uint64_t unit, int io_nodes) : unit_(unit), io_nodes_(io_nodes) {
    SIO_ASSERT(unit > 0 && io_nodes > 0);
  }

  std::uint64_t unit() const { return unit_; }
  int io_nodes() const { return io_nodes_; }

  /// Global stripe-unit index of a file offset.
  std::uint64_t unit_of(std::uint64_t offset) const { return offset / unit_; }

  /// I/O node holding a given stripe unit.
  int io_node_of(std::uint64_t unit_index) const {
    return static_cast<int>(unit_index % static_cast<std::uint64_t>(io_nodes_));
  }

  /// Unit index local to its I/O node (its ordinal among the units that
  /// node holds for this file).
  std::uint64_t local_unit(std::uint64_t unit_index) const {
    return unit_index / static_cast<std::uint64_t>(io_nodes_);
  }

  /// True when [offset, offset+length) is non-empty and lies inside one
  /// stripe unit, i.e. map() would return exactly one segment.
  bool in_one_unit(std::uint64_t offset, std::uint64_t length) const {
    return length > 0 && offset % unit_ + length <= unit_;
  }

  /// The segment for a range inside one stripe unit (see in_one_unit()),
  /// built without the vector map() returns.
  StripeSegment segment(std::uint64_t offset, std::uint64_t length) const {
    SIO_ASSERT(in_one_unit(offset, length));
    const std::uint64_t u = unit_of(offset);
    return StripeSegment{io_node_of(u), u, offset - u * unit_, length, offset};
  }

  /// Splits [offset, offset+length) into stripe segments, in file order.
  std::vector<StripeSegment> map(std::uint64_t offset, std::uint64_t length) const;

  /// Number of distinct I/O nodes a range touches.
  int spread(std::uint64_t offset, std::uint64_t length) const;

 private:
  std::uint64_t unit_;
  int io_nodes_;
};

}  // namespace sio::pfs
