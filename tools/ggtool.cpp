// ggtool — command-line front end to the library.
//
//   ggtool algos    [--codes]
//   ggtool partitioners [--codes]
//   ggtool generate <rmat|powerlaw|road> <out.bin> [scale|n] [ef|deg] [seed]
//   ggtool convert  <in(.txt|.bin)> <out(.txt|.bin)>
//   ggtool stats    <graph>
//   ggtool partition-report <graph> <partitions> [domains]
//                   [--partitioner NAME] [--ppart k=v]...
//   ggtool run      <ALGO> <graph>
//                   [--partitions N] [--layout auto|csc|coo|pcsr]
//                   [--order original|degree|hilbert|child]
//                   [--partitioner NAME] [--ppart k=v]...
//                   [--source V] [--param k=v]... [--threads T]
//                   [--domains D] [--no-atomics]
//   ggtool serve    <graph> [--clients N] [--queries N]
//                   [--script FILE] [--threads-per-query T]
//                   [--deadline-ms MS] [--max-queue N] [--cache N]
//                   [--graph NAME=PATH]... [--partitions N] [--order O]
//                   [--partitioner NAME] [--ppart k=v]... [--domains D]
//
// Algorithms are addressed by their registry paper code (`ggtool algos`
// lists every registered algorithm with its flags and parameters; --codes
// prints bare codes for scripting).  run/serve dispatch through the
// AlgorithmRegistry, so a newly registered algorithm is immediately
// runnable here with no ggtool changes.  --param k=v (repeatable) passes
// typed parameters validated against the algorithm's schema; --source V is
// shorthand for --param source=V.
//
// Partitioning strategies work the same way through the
// PartitionerRegistry (`ggtool partitioners` lists them; --codes is the
// scripting surface): --partitioner NAME selects the build's strategy and
// --ppart k=v (repeatable) passes its schema-validated parameters, for
// run, serve and partition-report alike.  A newly registered strategy is
// immediately usable here with no ggtool changes.
//
// serve executes a query script concurrently through a GraphService with
// --clients worker threads.  Script lines are "[@GRAPH] ALGO [source]
// [k=v ...]" (one query per line, '#' comments); without --script a default
// mixed workload of --queries queries is generated.  --deadline-ms stamps
// every query with a deadline; --max-queue caps the admission queue so
// overload sheds instead of buffering.  The summary breaks results down by
// status (ok/error/deadline/cancelled/shed) and serve exits 2 if any query
// resolved non-ok.
//
// serve fronts a multi-graph catalog: the positional <graph> loads as
// "default", --graph NAME=PATH (repeatable) loads more, and a query line's
// @NAME prefix addresses one of them.  Scripts can also manage the catalog
// with '%' commands — "%load NAME PATH", "%evict NAME", "%epoch NAME",
// "%graphs" — each a barrier: outstanding queries drain before it applies,
// so a script reads top-to-bottom.  --cache N enables the epoch-keyed
// result cache (N entries; default off); the summary then reports hits,
// misses and the per-graph breakdown.
//
// --source and all printed vertex ids are in the input file's (original) ID
// space; --order selects the internal vertex relabeling applied by the
// build pipeline, and the info output reports both ID spaces.  --domains
// sets the NUMA-domain count of the build (default 4).  run's info output
// prints the traversal's home-domain visit ratio and a domain map with
// partitions / edges / arena MiB per domain; partition-report prints the
// same map without the arena column (it runs only the order/assign/
// partition stages — no layouts are materialised), plus a [partitioner]
// section with the strategy, its resolved params, the replication factor
// and both imbalance figures.
//
// Graph files: SNAP text edge lists (.txt/.el) or this library's binary
// format (.bin).  Exit code 0 on success, 1 on usage errors, 2 on runtime
// failures.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/registry.hpp"
#include "engine/engine.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "partition/registry.hpp"
#include "partition/replication.hpp"
#include "partition/storage_model.hpp"
#include "service/graph_service.hpp"
#include "sys/arena.hpp"
#include "sys/numa.hpp"
#include "sys/parallel.hpp"
#include "sys/table.hpp"
#include "sys/timer.hpp"

using namespace grind;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

graph::EdgeList load_any(const std::string& path) {
  if (ends_with(path, ".bin")) return graph::load_binary(path);
  return graph::load_snap(path);
}

void save_any(const graph::EdgeList& el, const std::string& path) {
  if (ends_with(path, ".bin")) {
    graph::save_binary(el, path);
  } else {
    graph::save_snap(el, path);
  }
}

std::string algo_codes_line() {
  std::string out;
  for (const auto& name : algorithms::AlgorithmRegistry::instance().names()) {
    if (!out.empty()) out += "|";
    out += name;
  }
  return out;
}

int usage() {
  std::cerr
      << "usage:\n"
         "  ggtool algos [--codes]\n"
         "  ggtool partitioners [--codes]\n"
         "  ggtool generate <rmat|powerlaw|road> <out> [scale|n] [ef|deg] "
         "[seed]\n"
         "  ggtool convert <in> <out>\n"
         "  ggtool stats <graph>\n"
         "  ggtool partition-report <graph> <partitions> [domains] "
         "[--partitioner P] [--ppart k=v]...\n"
         "  ggtool run <algo> <graph> [--partitions N] [--layout L] "
         "[--order O] [--partitioner P] [--ppart k=v]... [--source V] "
         "[--param k=v]... [--threads T] [--domains D] [--no-atomics]\n"
         "    algo = " +
             algo_codes_line() +
             " (see `ggtool algos`)\n"
             "    L = auto|csc|coo|pcsr (traversal layout)\n"
             "    O = original|degree|hilbert|child (vertex reordering)\n"
             "    P = partitioning strategy (see `ggtool partitioners`)\n"
             "    D = logical NUMA domains of the build (default 4)\n"
             "  ggtool serve <graph> [--clients N] [--queries N] "
             "[--script FILE]\n"
             "               [--threads-per-query T] [--deadline-ms MS] "
             "[--max-queue N] [--cache N]\n"
             "               [--graph NAME=PATH]... [--partitions N] "
             "[--order O] [--partitioner P] [--ppart k=v]... [--domains D]\n"
             "    script lines: \"[@GRAPH] ALGO [source] [k=v ...]\" or "
             "%load NAME PATH | %evict NAME |\n"
             "                  %epoch NAME | %graphs  (catalog commands "
             "drain in-flight queries first)\n";
  return 1;
}

/// Per-domain partition/edge map of a partitioning under a NumaModel — the
/// placement the arenas realise (physically under GRIND_NUMA, logically
/// otherwise).  With `with_arena_bytes` (a Graph was actually built in this
/// process) an arena-accounting column shows the bytes each domain holds.
void print_domain_map(const partition::Partitioning& parts,
                      const NumaModel& numa, const std::string& title,
                      bool with_arena_bytes) {
  const part_t np = parts.num_partitions();
  const int nd = numa.domains();
  std::vector<std::size_t> parts_per(nd, 0);
  std::vector<eid_t> edges_per(nd, 0);
  eid_t total_edges = 0;
  for (part_t p = 0; p < np; ++p) {
    const int d = numa.domain_of_partition(p, np);
    ++parts_per[static_cast<std::size_t>(d)];
    edges_per[static_cast<std::size_t>(d)] += parts.edges_in(p);
    total_edges += parts.edges_in(p);
  }
  Table t(title + ": " + std::to_string(nd) + " domains (" +
          (NumaArenas::physical() ? "physical libnuma placement"
                                  : "logical arenas") +
          ")");
  std::vector<std::string> header{"domain", "partitions", "edges",
                                  "edge share"};
  if (with_arena_bytes) header.push_back("arena MiB");
  t.header(header);
  for (int d = 0; d < nd; ++d) {
    const double share =
        total_edges > 0 ? static_cast<double>(edges_per[d]) /
                              static_cast<double>(total_edges) * 100.0
                        : 0.0;
    std::vector<std::string> row{
        Table::num(std::size_t{static_cast<std::size_t>(d)}),
        Table::num(parts_per[static_cast<std::size_t>(d)]),
        Table::num(std::size_t{edges_per[static_cast<std::size_t>(d)]}),
        Table::num(share, 1) + " %"};
    if (with_arena_bytes)
      row.push_back(Table::num(
          static_cast<double>(NumaArenas::instance().bytes_on(d)) / 1048576.0,
          1));
    t.row(row);
  }
  std::cout << t;
}

/// `ggtool algos`: the registered algorithm catalogue.  --codes prints one
/// bare paper code per line (stable scripting surface for CI smoke jobs).
int cmd_algos(const std::vector<std::string>& args) {
  const auto& registry = algorithms::AlgorithmRegistry::instance();
  if (!args.empty()) {
    if (args.size() != 1 || args[0] != "--codes") return usage();
    for (const auto* d : registry.entries()) std::cout << d->name << "\n";
    return 0;
  }
  Table t("registered algorithms (" + std::to_string(registry.size()) + ")");
  t.header({"code", "V/E", "flags", "params", "description"});
  for (const auto* d : registry.entries()) {
    std::string flags;
    auto add_flag = [&](bool on, const char* name) {
      if (!on) return;
      if (!flags.empty()) flags += ",";
      flags += name;
    };
    add_flag(d->caps.needs_source, "source");
    add_flag(d->caps.needs_weights, "weights");
    add_flag(d->caps.takes_vector_input, "vector-in");
    add_flag(d->caps.deterministic, "det");
    t.row({d->name, d->caps.vertex_oriented ? "V" : "E", flags,
           d->schema.summary(), d->title});
  }
  std::cout << t;
  return 0;
}

/// `ggtool partitioners`: the registered strategy catalogue, mirroring
/// cmd_algos.  --codes prints one bare name per line (the stable scripting
/// surface the partitioner-smoke CI job loops over).
int cmd_partitioners(const std::vector<std::string>& args) {
  const auto& registry = partition::PartitionerRegistry::instance();
  if (!args.empty()) {
    if (args.size() != 1 || args[0] != "--codes") return usage();
    for (const auto* d : registry.entries()) std::cout << d->name << "\n";
    return 0;
  }
  Table t("registered partitioners (" + std::to_string(registry.size()) +
          ")");
  t.header({"name", "flags", "params", "description"});
  for (const auto* d : registry.entries()) {
    std::string flags;
    auto add_flag = [&](bool on, const char* name) {
      if (!on) return;
      if (!flags.empty()) flags += ",";
      flags += name;
    };
    add_flag(d->caps.streaming, "stream");
    add_flag(d->caps.needs_degrees, "degrees");
    add_flag(d->caps.deterministic, "det");
    t.row({d->name, flags, d->schema.summary(), d->title});
  }
  std::cout << t;
  return 0;
}

/// Fold the --partitioner/--ppart flags into build options: look the
/// strategy up in the registry and parse each k=v through its schema.
/// Returns false (after a diagnostic) on unknown strategies, duplicate
/// keys, or schema-rejected values.
bool apply_partitioner_flags(const std::string& name,
                             const std::vector<std::string>& ppart_kvs,
                             graph::BuildOptions* bopts) {
  const partition::PartitionerDesc* pdesc =
      partition::PartitionerRegistry::instance().find(name);
  if (pdesc == nullptr) {
    std::cerr << "error: unknown partitioner '" << name
              << "' (see `ggtool partitioners`)\n";
    return false;
  }
  bopts->partitioner = name;
  for (const std::string& kv : ppart_kvs) {
    const std::string key = kv.substr(0, kv.find('='));
    if (bopts->partitioner_params.has(key)) {
      std::cerr << "error: duplicate partitioner parameter '" << key << "'\n";
      return false;
    }
    try {
      pdesc->schema.parse_kv(kv, &bopts->partitioner_params);
    } catch (const std::exception& e) {
      std::cerr << "error: --ppart " << e.what() << "\n";
      return false;
    }
  }
  return true;
}

/// "k=v, …" rendering of a resolved parameter bag for report output.
std::string params_summary(const algorithms::Params& p) {
  std::ostringstream os;
  bool first = true;
  for (const auto& e : p.entries()) {
    if (!first) os << ", ";
    first = false;
    os << e.key << "=";
    if (const auto* i = std::get_if<std::int64_t>(&e.value))
      os << *i;
    else if (const auto* d = std::get_if<double>(&e.value))
      os << *d;
    else
      os << "<vec>";
  }
  return first ? std::string("(none)") : os.str();
}

int cmd_generate(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string kind = args[0];
  const std::string out = args[1];
  const long a3 = args.size() > 2 ? std::stol(args[2]) : 0;
  const long a4 = args.size() > 3 ? std::stol(args[3]) : 0;
  const std::uint64_t seed =
      args.size() > 4 ? std::stoull(args[4]) : 42;

  graph::EdgeList el;
  if (kind == "rmat") {
    el = graph::rmat(a3 > 0 ? static_cast<int>(a3) : 16,
                     a4 > 0 ? static_cast<eid_t>(a4) : 16, seed);
  } else if (kind == "powerlaw") {
    el = graph::powerlaw(a3 > 0 ? static_cast<vid_t>(a3) : 100000, 2.0,
                         a4 > 0 ? static_cast<double>(a4) : 15.0, seed);
  } else if (kind == "road") {
    const auto side = a3 > 0 ? static_cast<vid_t>(a3) : 256;
    el = graph::road_lattice(side, side, 0.05, seed);
  } else {
    return usage();
  }
  save_any(el, out);
  std::cout << "wrote " << el.num_vertices() << " vertices / "
            << el.num_edges() << " edges to " << out << "\n";
  return 0;
}

int cmd_stats(const std::string& path) {
  const auto el = load_any(path);
  const auto out = el.out_degrees();
  const auto in = el.in_degrees();
  Table t("graph statistics: " + path);
  t.header({"metric", "value"});
  t.row({"vertices", Table::num(std::size_t{el.num_vertices()})});
  t.row({"edges", Table::num(std::size_t{el.num_edges()})});
  t.row({"avg degree", Table::num(static_cast<double>(el.num_edges()) /
                                      std::max<double>(1, el.num_vertices()),
                                  2)});
  t.row({"max out-degree",
         Table::num(std::size_t{*std::max_element(out.begin(), out.end())})});
  t.row({"max in-degree",
         Table::num(std::size_t{*std::max_element(in.begin(), in.end())})});
  std::size_t zero_out = 0;
  for (eid_t d : out) zero_out += d == 0 ? 1 : 0;
  t.row({"zero-out-degree vertices", Table::num(zero_out)});
  std::cout << t;
  return 0;
}

int cmd_partition_report(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string path = args[0];
  const part_t parts = static_cast<part_t>(std::stoul(args[1]));
  int domains = NumaModel::kDefaultDomains;
  std::string partitioner = partition::kContiguousPartitioner;
  std::vector<std::string> ppart_kvs;
  std::size_t i = 2;
  if (i < args.size() && args[i].rfind("--", 0) != 0)
    domains = std::stoi(args[i++]);
  for (; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : throw std::invalid_argument(a);
    };
    if (a == "--partitioner") {
      partitioner = next();
    } else if (a == "--ppart") {
      ppart_kvs.push_back(next());
    } else {
      return usage();
    }
  }

  graph::BuildOptions bopts;
  bopts.num_partitions = parts;
  bopts.numa_domains = domains;
  if (!apply_partitioner_flags(partitioner, ppart_kvs, &bopts)) return 1;

  // Run only the order/assign/partition stages of the build pipeline: no
  // CSR/CSC/COO layouts (and hence no arena bytes) are materialised, but
  // the partitioning — strategy assignment folded in, boundaries aligned,
  // partition count rounded to a NUMA-admissible value — is exactly the
  // one a full build with these options would carry, so the report is
  // reproducible from any fig3-matrix row.
  graph::GraphBuilder builder(load_any(path), bopts);
  const auto& partitioning = builder.partitioning_edges();
  const auto& el = builder.edge_list();
  const double r = partition::replication_factor(el, partitioning);
  const NumaModel numa(domains);
  const part_t resolved_parts = partitioning.num_partitions();

  partition::StorageInputs in;
  in.num_vertices = el.num_vertices();
  in.num_edges = el.num_edges();

  Table t("partition report: " + path + " at P=" +
          std::to_string(resolved_parts) +
          (resolved_parts == parts
               ? std::string()
               : " (requested " + std::to_string(parts) + ")"));
  t.header({"metric", "value"});
  t.row({"edge imbalance (max/mean)",
         Table::num(partitioning.edge_imbalance(), 3)});
  t.row({"replication factor r(p)", Table::num(r, 3)});
  t.row({"worst-case r", Table::num(partition::worst_case_replication(el), 2)});
  t.row({"storage COO [MiB]",
         Table::num(partition::storage_coo(in) / 1048576.0, 1)});
  t.row({"storage CSR pruned [MiB]",
         Table::num(partition::storage_csr_pruned(in, r) / 1048576.0, 1)});
  t.row({"storage CSR unpruned [MiB]",
         Table::num(partition::storage_csr_unpruned(in, resolved_parts) /
                        1048576.0,
                    1)});
  t.row({"storage GG-v2 composite [MiB]",
         Table::num(partition::storage_graphgrind_v2(in) / 1048576.0, 1)});
  std::cout << t;

  // The [partitioner] section: everything needed to reproduce (and trust)
  // a fig3-matrix row from the CLI — the strategy, the exact resolved
  // parameter bag it ran with, and the three locality figures.
  const auto& resolved_opts = builder.options();
  Table pt("[partitioner]");
  pt.header({"metric", "value"});
  pt.row({"strategy", resolved_opts.partitioner});
  pt.row({"params", params_summary(resolved_opts.partitioner_params)});
  pt.row({"replication factor r(p)", Table::num(r, 3)});
  pt.row({"edge imbalance (max/mean)",
          Table::num(partitioning.edge_imbalance(), 3)});
  pt.row({"vertex imbalance (max/mean)",
          Table::num(partitioning.vertex_imbalance(), 3)});
  std::cout << pt;

  // Domain map: how the partitions (and their edges) spread over the NUMA
  // domains the arenas would place them on.  No layouts were built, so
  // there are no arena bytes to show.
  print_domain_map(partitioning, numa, "domain map",
                   /*with_arena_bytes=*/false);
  return 0;
}

int cmd_run(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const std::string algo = args[0];
  const std::string path = args[1];

  const algorithms::AlgorithmDesc* desc =
      algorithms::AlgorithmRegistry::instance().find(algo);
  if (desc == nullptr) {
    std::cerr << "error: unknown algorithm '" << algo
              << "' (see `ggtool algos`)\n";
    return usage();
  }

  graph::BuildOptions bopts;
  engine::Options eopts;
  algorithms::Params params;
  std::string partitioner = partition::kContiguousPartitioner;
  std::vector<std::string> ppart_kvs;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : throw std::invalid_argument(a);
    };
    if (a == "--partitions") {
      bopts.num_partitions = static_cast<part_t>(std::stoul(next()));
    } else if (a == "--layout") {
      const std::string l = next();
      if (l == "auto") eopts.layout = engine::Layout::kAuto;
      else if (l == "csc") eopts.layout = engine::Layout::kBackwardCsc;
      else if (l == "coo") eopts.layout = engine::Layout::kDenseCoo;
      else if (l == "pcsr") eopts.layout = engine::Layout::kPartitionedCsr;
      else return usage();
    } else if (a == "--order") {
      const auto o = graph::parse_ordering(next());
      if (!o) return usage();
      bopts.ordering = *o;
    } else if (a == "--partitioner") {
      partitioner = next();
    } else if (a == "--ppart") {
      ppart_kvs.push_back(next());
    } else if (a == "--source") {
      // Schema resolution would reject this as "unknown parameter", which
      // reads like a typo'd key; say what is actually wrong.
      if (!desc->caps.needs_source) {
        std::cerr << "error: " << desc->name
                  << " takes no source (--source is not applicable)\n";
        return 1;
      }
      // Parse through the schema so "--source 12abc" fails like the
      // documented-equivalent "--param source=12abc" instead of silently
      // truncating at the junk.
      if (params.has("source")) {
        std::cerr << "error: duplicate parameter 'source'\n";
        return 1;
      }
      try {
        desc->schema.parse_kv("source=" + next(), &params);
      } catch (const std::exception& e) {
        std::cerr << "error: --source " << e.what() << "\n";
        return 1;
      }
    } else if (a == "--param") {
      // Typed by the algorithm's schema; unknown keys / malformed values
      // are usage errors, reported with the offending key — and duplicate
      // assignments are rejected exactly like serve-script lines.
      const std::string kv = next();
      if (params.has(kv.substr(0, kv.find('=')))) {
        std::cerr << "error: duplicate parameter '"
                  << kv.substr(0, kv.find('=')) << "'\n";
        return 1;
      }
      try {
        desc->schema.parse_kv(kv, &params);
      } catch (const std::exception& e) {
        std::cerr << "error: --param " << e.what() << "\n";
        return 1;
      }
    } else if (a == "--threads") {
      set_num_threads(std::stoi(next()));
    } else if (a == "--domains") {
      bopts.numa_domains = std::stoi(next());
    } else if (a == "--no-atomics") {
      eopts.atomics = engine::AtomicsMode::kForceOff;
    } else {
      return usage();
    }
  }
  bopts.build_partitioned_csr =
      eopts.layout == engine::Layout::kPartitionedCsr;
  if (!apply_partitioner_flags(partitioner, ppart_kvs, &bopts)) return 1;

  auto el = load_any(path);
  Timer build_timer;
  const auto g = graph::Graph::build(std::move(el), bopts);
  const double build_s = build_timer.seconds();

  // Resolve source-style defaults up front so the info output can report
  // the source actually used; range errors exit 1 with a friendly message
  // (matching the old behaviour) instead of surfacing as a runtime throw.
  algorithms::Params resolved;
  try {
    resolved = desc->resolve(params, g);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  engine::Engine eng(g, eopts);
  Timer run_timer;
  const algorithms::AnyResult result = desc->run_resolved(eng, resolved);
  const double run_s = run_timer.seconds();
  if (desc->summarize) std::cout << desc->summarize(result) << "\n";

  const auto& pe = g.partitioning_edges();
  std::cout << "graph: " << g.num_vertices() << " vertices, " << g.num_edges()
            << " edges, " << pe.num_partitions() << " partitions (built in "
            << Table::num(build_s, 3) << " s)\n"
            << "ordering: "
            << graph::ordering_name(g.build_options().ordering);
  if (desc->caps.needs_source) {
    const vid_t source = static_cast<vid_t>(resolved.get_int("source"));
    std::cout << ", source " << source << " (original) = "
              << g.to_internal(source) << " (internal)";
  }
  std::cout << "\n"
            << "partitioning: " << g.build_options().partitioner << " ("
            << params_summary(g.build_options().partitioner_params)
            << "), edge imbalance " << Table::num(pe.edge_imbalance(), 3)
            << ", vertex imbalance " << Table::num(pe.vertex_imbalance(), 3)
            << ", replication r(p) "
            << Table::num(partition::replication_factor(g.edge_list(), pe), 3)
            << "\n"
            << algo << " completed in " << Table::num(run_s, 4)
            << " s with " << num_threads() << " threads\n"
            << eng.stats_report();
  print_domain_map(g.partitioning_edges(), g.numa(), "domain map",
                   /*with_arena_bytes=*/true);
  return 0;
}

// Parse one script line ("[@GRAPH] ALGO [source] [k=v ...]") into a
// request; returns false with a diagnostic on malformed lines (unknown
// algorithm, bad source, schema-rejected parameters), reported with the
// line number by the caller.  Whether "@GRAPH" names a loaded graph is the
// service's call at submit time, not the parser's.
bool parse_query_line(const std::string& line, service::QueryRequest* out,
                      std::string* diag) {
  std::istringstream is(line);
  std::string code;
  if (!(is >> code)) return false;
  if (code.front() == '@') {
    if (code.size() == 1) {
      *diag = "empty graph name '@'";
      return false;
    }
    out->graph = code.substr(1);
    if (!(is >> code)) {
      *diag = "graph prefix '@" + out->graph + "' without an algorithm";
      return false;
    }
  }
  const algorithms::AlgorithmDesc* desc =
      algorithms::AlgorithmRegistry::instance().find(code);
  if (desc == nullptr) {
    *diag = "unknown algorithm '" + code + "'";
    return false;
  }
  out->algorithm = desc->name;
  std::string tok;
  while (is >> tok) {
    const auto eq = tok.find('=');
    if (eq != std::string::npos) {
      // Reject duplicate assignments in either spelling ("BFS 3 source=5"
      // must fail just like "BFS source=5 3" does below).
      if (out->params.has(tok.substr(0, eq))) {
        *diag = "duplicate parameter '" + tok.substr(0, eq) + "'";
        return false;
      }
      try {
        desc->schema.parse_kv(tok, &out->params);
      } catch (const std::exception& e) {
        *diag = e.what();
        return false;
      }
      continue;
    }
    // A bare token is the source shorthand, valid once and only for
    // source-taking algorithms.  Strict unsigned 32-bit parse: stoul would
    // wrap "-1" and truncating to vid_t would silently turn out-of-range
    // IDs into valid ones.
    if (!desc->caps.needs_source) {
      *diag = desc->name + " takes no source (token '" + tok + "')";
      return false;
    }
    if (out->params.has("source")) {
      *diag = "unexpected trailing token '" + tok + "' (source already given)";
      return false;
    }
    if (tok.empty() || tok[0] == '-' || tok[0] == '+') {
      *diag = "bad source '" + tok + "'";
      return false;
    }
    try {
      std::size_t pos = 0;
      const unsigned long long src = std::stoull(tok, &pos);
      if (pos != tok.size() || src >= kInvalidVertex) {
        *diag = "bad source '" + tok + "'";
        return false;  // "1O", "5x": partial parse; or out of vid_t range
      }
      out->params.set("source", static_cast<vid_t>(src));
    } catch (const std::exception&) {
      *diag = "bad source '" + tok + "'";
      return false;
    }
  }
  return true;
}

// One serve-script statement: a query, or a '%' catalog command.  Catalog
// commands are barriers — every in-flight query drains before one applies —
// so a script reads strictly top-to-bottom: queries before an %evict see
// the old graph, queries after it get "unknown graph".
struct ServeOp {
  enum class Kind { kQuery, kLoad, kEvict, kEpoch, kList };
  Kind kind = Kind::kQuery;
  service::QueryRequest req;  // kQuery
  std::string name;           // kLoad / kEvict / kEpoch
  std::string path;           // kLoad
};

bool parse_catalog_line(const std::string& line, ServeOp* out,
                        std::string* diag) {
  std::istringstream is(line);
  std::string cmd, extra;
  is >> cmd;
  if (cmd == "%graphs") {
    if (is >> extra) {
      *diag = "%graphs takes no arguments";
      return false;
    }
    out->kind = ServeOp::Kind::kList;
    return true;
  }
  if (cmd == "%load") {
    if (!(is >> out->name >> out->path) || (is >> extra)) {
      *diag = "usage: %load NAME PATH";
      return false;
    }
    out->kind = ServeOp::Kind::kLoad;
    return true;
  }
  if (cmd == "%evict" || cmd == "%epoch") {
    if (!(is >> out->name) || (is >> extra)) {
      *diag = "usage: " + cmd + " NAME";
      return false;
    }
    out->kind =
        cmd == "%evict" ? ServeOp::Kind::kEvict : ServeOp::Kind::kEpoch;
    return true;
  }
  *diag = "unknown catalog command '" + cmd + "'";
  return false;
}

int cmd_serve(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string path = args[0];

  graph::BuildOptions bopts;
  service::ServiceConfig cfg;
  std::size_t queries = 64;
  std::string script_path;
  std::chrono::milliseconds deadline{0};
  std::vector<std::pair<std::string, std::string>> extra_graphs;
  std::string partitioner = partition::kContiguousPartitioner;
  std::vector<std::string> ppart_kvs;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return ++i < args.size() ? args[i] : throw std::invalid_argument(a);
    };
    if (a == "--clients") {
      cfg.workers = std::stoul(next());
    } else if (a == "--queries") {
      queries = std::stoul(next());
    } else if (a == "--script") {
      script_path = next();
    } else if (a == "--threads-per-query") {
      cfg.threads_per_query = std::stoi(next());
    } else if (a == "--deadline-ms") {
      deadline = std::chrono::milliseconds(std::stol(next()));
    } else if (a == "--max-queue") {
      cfg.max_queue_depth = std::stoul(next());
    } else if (a == "--cache") {
      cfg.result_cache_capacity = std::stoul(next());
    } else if (a == "--graph") {
      const std::string kv = next();
      const auto eq = kv.find('=');
      if (eq == std::string::npos || eq == 0 || eq + 1 == kv.size()) {
        std::cerr << "error: --graph wants NAME=PATH, got '" << kv << "'\n";
        return usage();
      }
      extra_graphs.emplace_back(kv.substr(0, eq), kv.substr(eq + 1));
    } else if (a == "--partitions") {
      bopts.num_partitions = static_cast<part_t>(std::stoul(next()));
    } else if (a == "--order") {
      const auto o = graph::parse_ordering(next());
      if (!o) return usage();
      bopts.ordering = *o;
    } else if (a == "--partitioner") {
      partitioner = next();
    } else if (a == "--ppart") {
      ppart_kvs.push_back(next());
    } else if (a == "--domains") {
      bopts.numa_domains = std::stoi(next());
    } else {
      return usage();
    }
  }
  if (!apply_partitioner_flags(partitioner, ppart_kvs, &bopts)) return 1;

  auto el = load_any(path);
  Timer build_timer;
  service::GraphService svc(graph::Graph::build(std::move(el), bopts), cfg);
  for (const auto& [gname, gpath] : extra_graphs) {
    try {
      svc.load_graph(gname, graph::Graph::build(load_any(gpath), bopts));
    } catch (const std::exception& e) {
      std::cerr << "error: --graph " << gname << "=" << gpath << ": "
                << e.what() << "\n";
      return 2;
    }
  }
  const double build_s = build_timer.seconds();
  const auto& g = svc.graph();

  // Assemble the workload: the script verbatim, or a default mix cycling
  // through the algorithms with sources spread over the vertex range.
  std::vector<ServeOp> ops;
  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::cerr << "error: cannot open script " << script_path << "\n";
      return 2;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      const auto hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      const auto start = line.find_first_not_of(" \t\r");
      if (start == std::string::npos) continue;
      ServeOp op;
      std::string diag;
      const bool parsed = line[start] == '%'
                              ? parse_catalog_line(line, &op, &diag)
                              : parse_query_line(line, &op.req, &diag);
      if (!parsed) {
        std::cerr << "error: bad script line " << lineno << ": " << line
                  << (diag.empty() ? "" : " (" + diag + ")") << "\n";
        return 2;
      }
      ops.push_back(std::move(op));
    }
  } else {
    const auto& registry = algorithms::AlgorithmRegistry::instance();
    const char* const mix[] = {"BFS", "PR", "CC", "BF"};
    for (std::size_t q = 0; q < queries; ++q) {
      ServeOp op;
      op.req = service::QueryRequest(mix[q % std::size(mix)]);
      if (g.num_vertices() > 0 &&
          registry.at(op.req.algorithm).caps.needs_source)
        op.req.params.set("source",
                          static_cast<vid_t>((q * 131) % g.num_vertices()));
      ops.push_back(std::move(op));
    }
  }

  // Execute: queries stream in concurrently; a catalog command drains them
  // first, so its effect orders cleanly against neighbouring lines.
  std::vector<std::future<service::QueryResult>> futures;
  futures.reserve(ops.size());
  std::map<std::string, std::size_t> per_algo;
  std::map<std::string, std::size_t> per_status;
  std::size_t failed = 0;
  const auto drain = [&] {
    for (auto& f : futures) {
      const auto r = f.get();
      ++per_algo[r.algorithm];
      ++per_status[service::to_string(r.status)];
      if (!r.ok()) {
        ++failed;
        std::cerr << "query " << service::to_string(r.status) << ": "
                  << r.algorithm << ": " << r.error << "\n";
      }
    }
    futures.clear();
  };

  Timer wall;
  for (auto& op : ops) {
    switch (op.kind) {
      case ServeOp::Kind::kQuery:
        if (deadline.count() > 0) op.req.deadline = deadline;
        futures.push_back(svc.submit(std::move(op.req)));
        break;
      case ServeOp::Kind::kLoad: {
        drain();
        try {
          const std::uint64_t e = svc.load_graph(
              op.name, graph::Graph::build(load_any(op.path), bopts));
          std::cout << "%load " << op.name << ": epoch " << e << "\n";
        } catch (const std::exception& e) {
          std::cerr << "error: %load " << op.name << ": " << e.what()
                    << "\n";
          return 2;
        }
        break;
      }
      case ServeOp::Kind::kEvict: {
        drain();
        const auto outcome = svc.evict_graph(op.name);
        using Outcome = service::GraphCatalog::EvictOutcome;
        std::cout << "%evict " << op.name << ": "
                  << (outcome == Outcome::kEvicted    ? "evicted"
                      : outcome == Outcome::kDeferred ? "deferred"
                                                      : "not found")
                  << "\n";
        break;
      }
      case ServeOp::Kind::kEpoch: {
        drain();
        const std::uint64_t e = svc.bump_epoch(op.name);
        if (e == 0) {
          std::cerr << "error: %epoch " << op.name << ": unknown graph\n";
          return 2;
        }
        std::cout << "%epoch " << op.name << ": epoch " << e << "\n";
        break;
      }
      case ServeOp::Kind::kList:
        drain();
        for (const auto& info : svc.list_graphs())
          std::cout << "%graphs: " << info.name << " epoch=" << info.epoch
                    << " " << info.num_vertices << "v/" << info.num_edges
                    << "e " << info.bytes << "B pins=" << info.pins << "\n";
        break;
    }
  }
  drain();
  const double elapsed = wall.seconds();

  const auto st = svc.stats();
  Table t("service run: " + path);
  t.header({"metric", "value"});
  t.row({"graph", std::to_string(g.num_vertices()) + " vertices / " +
                      std::to_string(g.num_edges()) + " edges (built in " +
                      Table::num(build_s, 3) + " s)"});
  t.row({"clients (workers)", Table::num(svc.num_workers())});
  t.row({"threads per query", Table::num(std::size_t{
             static_cast<std::size_t>(cfg.threads_per_query)})});
  t.row({"queries", Table::num(st.queries_completed)});
  for (const auto& [label, count] : per_status)
    t.row({std::string("  status ") + label, Table::num(count)});
  if (svc.catalog().size() > 1 || !extra_graphs.empty()) {
    t.row({"catalog graphs", Table::num(svc.catalog().size())});
    for (const auto& [gname, pg] : st.per_graph)
      t.row({"  graph " + gname, Table::num(pg.queries) + " queries, " +
                                     Table::num(pg.cache_hits) +
                                     " cache hits"});
  }
  if (cfg.result_cache_capacity > 0) {
    t.row({"result cache capacity", Table::num(cfg.result_cache_capacity)});
    t.row({"  cache hits / misses", Table::num(st.cache_hits) + " / " +
                                        Table::num(st.cache_misses)});
    if (st.cache_evictions > 0)
      t.row({"  cache evictions", Table::num(st.cache_evictions)});
  }
  if (deadline.count() > 0)
    t.row({"deadline [ms]", Table::num(static_cast<std::size_t>(
               deadline.count()))});
  if (cfg.max_queue_depth > 0)
    t.row({"max queue depth", Table::num(cfg.max_queue_depth)});
  t.row({"wall time [s]", Table::num(elapsed, 3)});
  t.row({"throughput [queries/s]",
         Table::num(elapsed > 0 ? static_cast<double>(st.queries_completed) /
                                      elapsed
                                : 0.0,
                    1)});
  t.row({"busy/wall (parallelism)",
         Table::num(elapsed > 0 ? st.busy_seconds / elapsed : 0.0, 2)});
  std::cout << t;
  std::cout << "mix:";
  for (const auto& [code, count] : per_algo)
    std::cout << " " << code << "=" << count;
  std::cout << "\n";
  return failed == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const std::string cmd = args[0];
    args.erase(args.begin());
    if (cmd == "algos") return cmd_algos(args);
    if (cmd == "partitioners") return cmd_partitioners(args);
    if (cmd == "generate") return cmd_generate(args);
    if (cmd == "convert" && args.size() == 2) {
      save_any(load_any(args[0]), args[1]);
      return 0;
    }
    if (cmd == "stats" && args.size() == 1) return cmd_stats(args[0]);
    if (cmd == "partition-report") return cmd_partition_report(args);
    if (cmd == "run") return cmd_run(args);
    if (cmd == "serve") return cmd_serve(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
