#include "graph/io.hpp"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

namespace grind::graph {

namespace {
constexpr std::uint64_t kMagic = 0x4747524e44475248ULL;  // "GGRNDGRH"
constexpr std::uint32_t kVersion = 1;
constexpr std::string_view kWs = " \t\r\f\v";

[[noreturn]] void fail(const std::string& what, const std::string& path) {
  throw std::runtime_error(what + ": " + path);
}

/// Parse one vertex id at the front of `sv` (after blanks) and drop it.
/// std::from_chars rejects a sign and an out-of-range value, which
/// `istream >> uint32_t` accepts ("-1" reads as 4294967295); the reserved
/// kInvalidVertex is refused too, since EdgeList::add bounds ids by id + 1.
bool take_vertex_id(std::string_view& sv, vid_t* out) {
  const auto b = sv.find_first_not_of(kWs);
  if (b == std::string_view::npos) return false;
  sv.remove_prefix(b);
  const auto [end, ec] =
      std::from_chars(sv.data(), sv.data() + sv.size(), *out);
  if (ec != std::errc{} || *out == kInvalidVertex) return false;
  sv.remove_prefix(static_cast<std::size_t>(end - sv.data()));
  return true;
}

/// Parse the optional weight column, the rest of a trimmed line: nothing
/// (keeps *out), or one finite float and no further token.  `istream >>
/// float` read "abc" as 0 and "2.5x" as 2.5 without complaint.
bool take_weight(std::string_view sv, weight_t* out) {
  const auto b = sv.find_first_not_of(kWs);
  if (b == std::string_view::npos) return true;
  sv.remove_prefix(b);
  const char* last = sv.data() + sv.size();
  const auto [end, ec] = std::from_chars(sv.data(), last, *out);
  return ec == std::errc{} && end == last && std::isfinite(*out);
}
}  // namespace

EdgeList load_snap(const std::string& path) {
  std::ifstream in(path);
  if (!in) fail("cannot open", path);
  EdgeList el;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Real-world SNAP dumps arrive with CRLF endings, stray indentation,
    // trailing blanks, and whitespace-only lines; trim both ends before
    // classifying the line so none of those trip the parser.
    std::string_view sv = line;
    const auto b = sv.find_first_not_of(kWs);
    if (b == std::string_view::npos) continue;  // blank / whitespace-only
    sv.remove_prefix(b);
    sv.remove_suffix(sv.size() - 1 - sv.find_last_not_of(kWs));
    if (sv[0] == '#' || sv[0] == '%') continue;
    vid_t src = 0, dst = 0;
    weight_t w = 1.0f;
    if (!take_vertex_id(sv, &src) || !take_vertex_id(sv, &dst) ||
        !take_weight(sv, &w))
      fail("parse error at line " + std::to_string(lineno), path);
    el.add(src, dst, w);
  }
  return el;
}

void save_snap(const EdgeList& el, const std::string& path) {
  std::ofstream out(path);
  if (!out) fail("cannot open for write", path);
  bool weighted = false;
  for (const Edge& e : el.edges())
    if (e.weight != 1.0f) { weighted = true; break; }
  out << "# vertices " << el.num_vertices() << " edges " << el.num_edges()
      << '\n';
  for (const Edge& e : el.edges()) {
    out << e.src << '\t' << e.dst;
    if (weighted) out << '\t' << e.weight;
    out << '\n';
  }
  if (!out) fail("write error", path);
}

void save_binary(const EdgeList& el, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) fail("cannot open for write", path);
  const std::uint64_t magic = kMagic;
  const std::uint32_t version = kVersion;
  const std::uint64_t nv = el.num_vertices();
  const std::uint64_t ne = el.num_edges();
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&nv), sizeof nv);
  out.write(reinterpret_cast<const char*>(&ne), sizeof ne);
  const auto es = el.edges();
  out.write(reinterpret_cast<const char*>(es.data()),
            static_cast<std::streamsize>(es.size() * sizeof(Edge)));
  if (!out) fail("write error", path);
}

EdgeList load_binary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot open", path);
  in.seekg(0, std::ios::end);
  const auto end_pos = in.tellg();
  if (end_pos < 0) fail("cannot determine size", path);
  const auto file_size = static_cast<std::uint64_t>(end_pos);
  in.seekg(0, std::ios::beg);

  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::uint64_t nv = 0, ne = 0;
  in.read(reinterpret_cast<char*>(&magic), sizeof magic);
  in.read(reinterpret_cast<char*>(&version), sizeof version);
  in.read(reinterpret_cast<char*>(&nv), sizeof nv);
  in.read(reinterpret_cast<char*>(&ne), sizeof ne);
  if (!in || magic != kMagic) fail("bad magic", path);
  if (version != kVersion) fail("unsupported version", path);
  // Validate the header against reality *before* sizing any buffer: a
  // corrupt `ne` must not drive a multi-terabyte vector resize, and `nv`
  // must survive the narrowing to vid_t un-truncated.
  if (nv > std::numeric_limits<vid_t>::max())
    fail("vertex count overflows 32-bit id space", path);
  constexpr std::uint64_t kHeaderBytes =
      sizeof magic + sizeof version + sizeof nv + sizeof ne;
  const std::uint64_t payload = file_size - kHeaderBytes;  // read succeeded,
                                                           // so size ≥ header
  if (ne > payload / sizeof(Edge)) fail("truncated file", path);
  std::vector<Edge> edges(ne);
  in.read(reinterpret_cast<char*>(edges.data()),
          static_cast<std::streamsize>(ne * sizeof(Edge)));
  if (!in) fail("truncated file", path);
  // Graph::build indexes per-vertex arrays by every endpoint, so one past
  // the header's bound would write out of bounds there.
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (edges[i].src >= nv || edges[i].dst >= nv)
      fail("endpoint out of range: edge " + std::to_string(i) + " (" +
               std::to_string(edges[i].src) + ", " +
               std::to_string(edges[i].dst) + ") with " + std::to_string(nv) +
               " vertices",
           path);
  }
  return EdgeList(static_cast<vid_t>(nv), std::move(edges));
}

}  // namespace grind::graph
