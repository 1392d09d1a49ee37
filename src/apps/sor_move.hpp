// SOR's work transfer on the wire (§4.5): the columns a rank hands to a
// neighbour, behind a snapshot of the donor's boundary column. The moved
// columns are owned fields, so each leaves the donor's array and enters
// the receiver's as the same vector; the snapshot, a column the donor
// keeps, is written into the head. sor.cpp sends and reads these; they
// sit in a header so tests can check their bytes.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "data/dist_array.hpp"
#include "data/slice.hpp"
#include "msg/serialize.hpp"
#include "util/check.hpp"

namespace nowlb::apps::sor {

// A column field: a View when sent, a vector (the default) when received.
using View = std::span<const double>;

// Boundary snapshot a left receiver gets with moved columns: the donor's
// new first column, which becomes the receiver's right ghost.
template <class Col = std::vector<double>>
struct LeftEdge {
  std::int32_t id = 0;
  Col column;
  template <class A> void fields(A& a) { a(id, column); }
};

// Boundary snapshot a right receiver gets: the donor's new highest column
// and its marker, the receiver's left boundary for strips below it.
template <class Col = std::vector<double>>
struct RightEdge {
  std::int32_t id = 0;
  std::int32_t marker = 0;
  Col column;
  template <class A> void fields(A& a) { a(id, marker, column); }
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
// snapshot when anything moves; each column's vector becomes a segment.
template <class Edge>
msg::Payload encode_move(data::DistArray<double>& cols,
                         std::vector<data::SliceId> ids, const Edge& edge) {
  const std::uint8_t boundary = ids.empty() ? 0 : 1;
  ColumnMove<Edge> mv{boundary, edge, 0,
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
