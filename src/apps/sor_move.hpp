// SOR's messages that carry whole columns (§4.5): the columns a rank
// hands to a neighbour, behind a snapshot of the donor's boundary column,
// and the sweep-start column. Every column is an owned field: a moved
// column leaves the donor's array and enters the receiver's as the same
// vector, and a snapshot, a column the donor keeps, is copied once into a
// vector that the payload carries as a segment and the receiver keeps as
// its ghost. sor.cpp sends and reads these; they sit in a header so tests
// can check their bytes.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::apps::sor {

// Boundary snapshot a left receiver gets with moved columns: the donor's
// new first column, which becomes the receiver's right ghost.
struct LeftEdge {
  std::int32_t id = 0;
  msg::Owned<> column;
  template <class A> void fields(A& a) { a(id, column); }
};

// Boundary snapshot a right receiver gets: the donor's new highest column
// and its marker, the receiver's left boundary for strips below it.
struct RightEdge {
  std::int32_t id = 0;
  std::int32_t marker = 0;
  msg::Owned<> column;
  template <class A> void fields(A& a) { a(id, marker, column); }
};

// Previous-sweep values of a rank's first column, for its left neighbour,
// which keeps them as its right ghost.
struct SweepStart {
  std::int32_t sweep = 0;
  std::int32_t col = 0;
  msg::Owned<> column;
  template <class A> void fields(A& a) { a(sweep, col, column); }
};

// A work transfer between neighbours; `Edge` depends on the direction. A
// clamped, empty transfer carries no snapshot (boundary == 0). `col_bytes`
// repeats the encoded size of the column list.
template <class Edge>
struct ColumnMove {
  std::uint8_t boundary = 0;
  Edge edge;
  std::uint64_t col_bytes = 0;
  data::DistArray<double>::Moving columns;

  template <class A>
  void fields(A& a) {
    a(boundary);
    if (boundary) a(edge);
    a(col_bytes, columns);
  }
};

// Moves the columns `ids` out of `cols` into one payload, with `edge` as the
// snapshot when anything moves; each column's vector, and the snapshot's,
// becomes a segment.
template <class Edge>
msg::Payload encode_move(data::DistArray<double>& cols,
                         std::vector<data::SliceId> ids, Edge edge) {
  const std::uint8_t boundary = ids.empty() ? 0 : 1;
  ColumnMove<Edge> mv{boundary, std::move(edge), 0,
                      data::DistArray<double>::Moving(cols, std::move(ids))};
  mv.col_bytes = msg::encoded_size(mv.columns);
  return msg::encode(mv);
}

// Reads a transfer, adding its columns to `cols` as they are read and
// taking their vectors from `payload`.
template <class Edge>
ColumnMove<Edge> decode_move(msg::Payload& payload,
                             data::DistArray<double>& cols, int rank,
                             int peer) {
  ColumnMove<Edge> mv{0, {}, 0, data::DistArray<double>::Moving(cols)};
  msg::decode(payload, mv);
  NOWLB_CHECK(mv.col_bytes == msg::encoded_size(mv.columns),
              "rank " << rank << ": move from peer " << peer << " declares "
                      << mv.col_bytes << " column bytes but carries "
                      << msg::encoded_size(mv.columns));
  return mv;
}

}  // namespace nowlb::apps::sor
