// Graph I/O: SNAP-style text edge lists and a compact binary format.
//
// The paper evaluates on public SNAP graphs (Table I).  When the real files
// are available they can be loaded with load_snap(); the benchmark suite
// falls back to the synthetic generators otherwise (DESIGN.md §1).
#pragma once

#include <string>

#include "graph/edge_list.hpp"

namespace grind::graph {

/// Load a SNAP text edge list: one "src dst [weight]" pair per line,
/// '#'/'%'-prefixed comment lines ignored.  Vertex ids are used as-is (the
/// file defines the id space); missing weights default to 1.  Tolerant of
/// CRLF line endings, leading/trailing whitespace, and blank lines.
/// Throws std::runtime_error on unreadable files or parse errors, which
/// include a signed or out-of-range id and the reserved id kInvalidVertex.
EdgeList load_snap(const std::string& path);

/// Save in SNAP text format (with weights when any differs from 1).
void save_snap(const EdgeList& el, const std::string& path);

/// Binary format: little-endian header {magic, version, |V|, |E|} followed
/// by |E| packed {src,dst,weight} records.  Round-trips exactly.
void save_binary(const EdgeList& el, const std::string& path);

/// Load the binary format written by save_binary().
/// Throws std::runtime_error on bad magic/version, truncated files, and an
/// edge endpoint at or past the header's vertex count.
EdgeList load_binary(const std::string& path);

}  // namespace grind::graph
