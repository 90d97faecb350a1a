#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sys/parallel.hpp"
#include "sys/rng.hpp"

namespace grind::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& name) {
    const auto dir = std::filesystem::temp_directory_path() / "grind_io_test";
    std::filesystem::create_directories(dir);
    paths_.push_back((dir / name).string());
    return paths_.back();
  }
  void TearDown() override {
    for (const auto& p : paths_) std::filesystem::remove(p);
  }
  std::vector<std::string> paths_;
};

TEST_F(IoTest, SnapRoundTripUnweighted) {
  EdgeList el;
  el.add(0, 1);
  el.add(2, 3);
  el.add(1, 0);
  const auto path = temp_path("plain.txt");
  save_snap(el, path);
  const EdgeList back = load_snap(path);
  ASSERT_EQ(back.num_edges(), el.num_edges());
  for (eid_t i = 0; i < el.num_edges(); ++i) {
    EXPECT_EQ(back.edge(i).src, el.edge(i).src);
    EXPECT_EQ(back.edge(i).dst, el.edge(i).dst);
  }
}

TEST_F(IoTest, SnapSkipsCommentsAndBlankLines) {
  const auto path = temp_path("comments.txt");
  std::ofstream out(path);
  out << "# a comment\n\n0\t1\n% percent comment\n1\t2\n";
  out.close();
  const EdgeList el = load_snap(path);
  EXPECT_EQ(el.num_edges(), 2u);
  EXPECT_EQ(el.num_vertices(), 3u);
}

TEST_F(IoTest, SnapToleratesCrlfWhitespaceAndBlankLines) {
  // A deliberately messy real-world-style file: CRLF endings, indented
  // comments, leading tabs, trailing blanks, and whitespace-only lines.
  const auto path = temp_path("messy.txt");
  std::ofstream out(path, std::ios::binary);  // binary: keep \r\n verbatim
  out << "# exported from a Windows box\r\n"
      << "\r\n"
      << "   \t \r\n"
      << "0\t1\r\n"
      << "  1 2  \r\n"
      << "\t2\t3\t4.5\t\r\n"
      << "   % indented percent comment\r\n"
      << "    # indented hash comment\n"
      << " 3 0\n"
      << "\n";
  out.close();
  const EdgeList el = load_snap(path);
  ASSERT_EQ(el.num_edges(), 4u);
  EXPECT_EQ(el.num_vertices(), 4u);
  EXPECT_EQ(el.edge(0).src, 0u);
  EXPECT_EQ(el.edge(0).dst, 1u);
  EXPECT_EQ(el.edge(1).src, 1u);
  EXPECT_EQ(el.edge(1).dst, 2u);
  EXPECT_EQ(el.edge(2).src, 2u);
  EXPECT_EQ(el.edge(2).dst, 3u);
  EXPECT_FLOAT_EQ(el.edge(2).weight, 4.5f);
  EXPECT_EQ(el.edge(3).src, 3u);
  EXPECT_EQ(el.edge(3).dst, 0u);
}

TEST_F(IoTest, SnapParsesOptionalWeights) {
  const auto path = temp_path("weighted.txt");
  std::ofstream out(path);
  out << "0 1 2.5\n1 2\n";
  out.close();
  const EdgeList el = load_snap(path);
  EXPECT_FLOAT_EQ(el.edge(0).weight, 2.5f);
  EXPECT_FLOAT_EQ(el.edge(1).weight, 1.0f);
}

TEST_F(IoTest, SnapMissingFileThrows) {
  EXPECT_THROW(load_snap("/nonexistent/definitely/missing.txt"),
               std::runtime_error);
}

TEST_F(IoTest, SnapMalformedLineThrows) {
  const auto path = temp_path("bad.txt");
  std::ofstream out(path);
  out << "0 1\nnot numbers\n";
  out.close();
  EXPECT_THROW(load_snap(path), std::runtime_error);
}

TEST_F(IoTest, BinaryRoundTripExact) {
  const EdgeList el = rmat(9, 8, 11);
  const auto path = temp_path("graph.bin");
  save_binary(el, path);
  const EdgeList back = load_binary(path);
  ASSERT_EQ(back.num_vertices(), el.num_vertices());
  ASSERT_EQ(back.num_edges(), el.num_edges());
  for (eid_t i = 0; i < el.num_edges(); ++i)
    ASSERT_EQ(back.edge(i), el.edge(i));
}

TEST_F(IoTest, BinaryBadMagicThrows) {
  const auto path = temp_path("junk.bin");
  std::ofstream out(path, std::ios::binary);
  out << "this is not a graph file at all, just junk bytes";
  out.close();
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

TEST_F(IoTest, BinaryTruncatedThrows) {
  const EdgeList el = rmat(8, 4, 2);
  const auto path = temp_path("trunc.bin");
  save_binary(el, path);
  std::filesystem::resize_file(path, std::filesystem::file_size(path) / 2);
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

namespace {

/// Write a syntactically valid binary header (magic + version) with the
/// given counts and `edges` behind it.
void write_binary(const std::string& path, std::uint64_t nv,
                  std::uint64_t ne, const std::vector<Edge>& edges) {
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t magic = 0x4747524e44475248ULL;  // "GGRNDGRH"
  const std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  out.write(reinterpret_cast<const char*>(&nv), sizeof nv);
  out.write(reinterpret_cast<const char*>(&ne), sizeof ne);
  out.write(reinterpret_cast<const char*>(edges.data()),
            static_cast<std::streamsize>(edges.size() * sizeof(Edge)));
}

/// write_binary with `payload_edges` path edges (i, i + 1).
void write_binary_header(const std::string& path, std::uint64_t nv,
                         std::uint64_t ne, std::size_t payload_edges) {
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < payload_edges; ++i)
    edges.push_back({static_cast<vid_t>(i), static_cast<vid_t>(i + 1), 1.0f});
  write_binary(path, nv, ne, edges);
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// EXPECT that loading `path` throws std::runtime_error whose message
/// contains `needle`.
template <typename Load>
void expect_load_error(Load load, const std::string& path,
                       const std::string& needle) {
  try {
    (void)load(path);
    ADD_FAILURE() << "loaded without error; wanted \"" << needle << "\"";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST_F(IoTest, BinaryHugeEdgeCountRejectedBeforeAllocation) {
  // PR 4 regression: a corrupt header claiming ~10^15 edges used to drive
  // std::vector<Edge> edges(ne) — a petabyte resize / bad_alloc — before
  // the truncation check ever ran.  The loader must validate `ne` against
  // the actual file size first and fail through the normal error path.
  const auto path = temp_path("huge_ne.bin");
  write_binary_header(path, /*nv=*/4, /*ne=*/1ull << 50, /*payload_edges=*/2);
  EXPECT_THROW(
      {
        try {
          load_binary(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("truncated"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IoTest, BinaryVertexCountOverflowRejected) {
  // nv wider than vid_t used to be silently truncated by static_cast —
  // 2^33 vertices became 0 — producing a graph that disagreed with its
  // own edges.  Now it fails loudly.
  const auto path = temp_path("huge_nv.bin");
  write_binary_header(path, /*nv=*/1ull << 33, /*ne=*/1, /*payload_edges=*/1);
  EXPECT_THROW(
      {
        try {
          load_binary(path);
        } catch (const std::runtime_error& e) {
          EXPECT_NE(std::string(e.what()).find("overflow"),
                    std::string::npos)
              << e.what();
          throw;
        }
      },
      std::runtime_error);
}

TEST_F(IoTest, BinaryMaximalRepresentableVertexCountAccepted) {
  // The contract boundary: nv == 2^32 - 1 still fits vid_t and must load.
  const auto path = temp_path("max_nv.bin");
  const std::uint64_t nv = 0xFFFFFFFFull;
  write_binary_header(path, nv, /*ne=*/1, /*payload_edges=*/1);
  const EdgeList el = load_binary(path);
  EXPECT_EQ(el.num_vertices(), static_cast<vid_t>(nv));
  EXPECT_EQ(el.num_edges(), 1u);
}

TEST_F(IoTest, BinaryTruncatedHeaderThrows) {
  // A file that ends inside the header (magic only) must fail cleanly.
  const auto path = temp_path("half_header.bin");
  std::ofstream out(path, std::ios::binary);
  const std::uint64_t magic = 0x4747524e44475248ULL;
  out.write(reinterpret_cast<const char*>(&magic), sizeof magic);
  out.close();
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

TEST_F(IoTest, BinaryGarbageHeaderCountsThrow) {
  // Random bytes where the counts live: either the sanity checks or the
  // payload check must reject it — never a crash or a silent mis-parse.
  const auto path = temp_path("garbage_counts.bin");
  write_binary_header(path, /*nv=*/0xDEADBEEFFEEDFACEull,
                      /*ne=*/0xABCDABCDABCDull, /*payload_edges=*/3);
  EXPECT_THROW(load_binary(path), std::runtime_error);
}

TEST_F(IoTest, BinaryEndpointOutOfRangeThrows) {
  // A header bound below an endpoint used to load, and Graph::build then
  // indexed its per-vertex arrays past their end (a segfault in ggtool
  // stats/run/serve).  The loader must refuse it, on either endpoint, and
  // still accept an endpoint one below the bound.
  const auto path = temp_path("far_endpoint.bin");
  const std::vector<std::vector<Edge>> bad = {
      {{3000000, 2, 1.0f}}, {{0, 1, 1.0f}, {1, 4, 1.0f}}, {{4, 0, 1.0f}}};
  for (const auto& edges : bad) {
    write_binary(path, /*nv=*/4, edges.size(), edges);
    expect_load_error(load_binary, path, "endpoint out of range");
  }
  write_binary(path, /*nv=*/4, 1, {{3, 0, 1.0f}});
  const EdgeList el = load_binary(path);
  EXPECT_EQ(el.num_vertices(), 4u);
  EXPECT_EQ(el.edge(0).src, 3u);
}

TEST_F(IoTest, SnapNegativeAndReservedIdsThrow) {
  // `istream >> uint32_t` read "-1" as 4294967295 and set no failbit, and
  // the literal 4294967295 (kInvalidVertex) wrapped EdgeList::add's id + 1
  // vertex bound to 0; either way Graph::build crashed.  Both are parse
  // errors now, reported with their line number like any other.
  const auto path = temp_path("bad_ids.txt");
  for (const char* line :
       {"-1 2", "0 -3", "4294967295 1", "1 4294967295", "4294967296 0"}) {
    SCOPED_TRACE(line);
    write_bytes(path, std::string("0 1\n") + line + "\n");
    expect_load_error(load_snap, path, "line 2");
  }
  // The largest unreserved id still loads.
  write_bytes(path, "4294967294 0\n");
  const EdgeList el = load_snap(path);
  EXPECT_EQ(el.num_vertices(), kInvalidVertex);
  EXPECT_EQ(el.edge(0).src, kInvalidVertex - 1);
}

TEST_F(IoTest, SnapMalformedWeightThrows) {
  // The third column must be one finite float: a failed or partial read
  // once loaded "abc" as weight 0 and "2.5x" as 2.5.
  const auto path = temp_path("bad_weights.txt");
  for (const char* line : {"1 2 abc", "1 2 2.5x", "1 2 2.5 7", "1 2 inf",
                           "1 2 nan", "1 2 1e99"}) {
    SCOPED_TRACE(line);
    write_bytes(path, std::string("0 1 3\n") + line + "\n");
    expect_load_error(load_snap, path, "line 2");
  }
  write_bytes(path, "0 1 -0.5\t\r\n1 2 1e-3\n2 0\n");
  const EdgeList el = load_snap(path);
  ASSERT_EQ(el.num_edges(), 3u);
  EXPECT_FLOAT_EQ(el.edge(0).weight, -0.5f);
  EXPECT_FLOAT_EQ(el.edge(1).weight, 1e-3f);
  EXPECT_FLOAT_EQ(el.edge(2).weight, 1.0f);
}

TEST_F(IoTest, MutatedInputsLoadOrThrowTyped) {
  // Seeded mutational fuzzing of both loaders: byte flips and truncations
  // of a small valid .bin and .el, plus the .bin header counts set to 0, 1,
  // max and the file size ± 1.  Every mutant must either throw
  // std::runtime_error or load an edge list whose endpoints are all below
  // its vertex bound and that Graph::build accepts.  Any other exception,
  // or a crash (the ASan job runs this too), fails the test.
  //
  // A mutant may legitimately declare millions of isolated vertices (a
  // flipped high byte of the .bin vertex count, or two text ids joined by
  // a flipped newline); building it would only measure the allocator, so
  // those are checked for their endpoints but not built.
  constexpr vid_t kBuildVertexCap = vid_t{1} << 16;
  constexpr int kRandomMutants = 1500;  // per format
  // Thousands of tiny builds: run them serially, so that on a loaded host
  // (ctest -j) OpenMP fork-join waits do not dominate the test's time.
  ThreadLimitGuard serial(1);

  EdgeList source = rmat(5, 3, 17);
  source.add(2, 7, 2.5f);  // one weighted edge: save_snap writes weights
  const auto bin_path = temp_path("fuzz_seed.bin");
  const auto el_path = temp_path("fuzz_seed.el");
  save_binary(source, bin_path);
  save_snap(source, el_path);
  const std::string bin_seed = read_bytes(bin_path);
  const std::string el_seed = read_bytes(el_path);
  ASSERT_GT(el_seed.size(), 64u);

  const auto mutant_path = temp_path("fuzz_mutant");
  std::size_t threw = 0, built = 0, unbuilt = 0;
  const auto check = [&](const std::string& bytes, auto load) {
    write_bytes(mutant_path, bytes);
    std::optional<EdgeList> el;
    try {
      el.emplace(load(mutant_path));
    } catch (const std::runtime_error&) {
      ++threw;
      return;
    }
    for (const Edge& e : el->edges()) {
      ASSERT_LT(e.src, el->num_vertices());
      ASSERT_LT(e.dst, el->num_vertices());
    }
    if (el->num_vertices() > kBuildVertexCap) {
      ++unbuilt;
      return;
    }
    const vid_t n = el->num_vertices();
    const Graph g = Graph::build(std::move(*el));
    EXPECT_EQ(g.num_vertices(), n);
    ++built;
  };

  Xoshiro256 rng(0x10ad);
  const auto mutate = [&](std::string bytes) {
    if (rng.next_below(4) == 0) {
      bytes.resize(rng.next_below(bytes.size()));
    } else {
      for (std::uint64_t f = 1 + rng.next_below(4); f > 0; --f)
        bytes[rng.next_below(bytes.size())] ^=
            static_cast<char>(1 + rng.next_below(255));
    }
    return bytes;
  };
  for (int i = 0; i < kRandomMutants; ++i) {
    SCOPED_TRACE(i);
    check(mutate(bin_seed), load_binary);
    check(mutate(el_seed), load_snap);
    if (::testing::Test::HasFatalFailure()) return;
  }

  // Header counts: |V| sits at byte 12 and |E| at byte 20 of the .bin.
  const std::uint64_t size = bin_seed.size();
  for (const std::size_t offset : {std::size_t{12}, std::size_t{20}}) {
    for (const std::uint64_t count :
         {std::uint64_t{0}, std::uint64_t{1},
          std::numeric_limits<std::uint64_t>::max(), size - 1, size + 1}) {
      SCOPED_TRACE(offset);
      SCOPED_TRACE(count);
      std::string bytes = bin_seed;
      std::memcpy(bytes.data() + offset, &count, sizeof count);
      check(bytes, load_binary);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  // Both outcomes are exercised, and most accepted mutants were built.
  EXPECT_GT(threw, 100u);
  EXPECT_GT(built, 100u);
  EXPECT_LT(unbuilt, built / 10);
}

TEST_F(IoTest, SnapPreservesWeightedFlagRoundTrip) {
  EdgeList el;
  el.add(0, 1, 3.5f);
  const auto path = temp_path("w2.txt");
  save_snap(el, path);
  const EdgeList back = load_snap(path);
  EXPECT_FLOAT_EQ(back.edge(0).weight, 3.5f);
}

}  // namespace
}  // namespace grind::graph
