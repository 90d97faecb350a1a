#!/usr/bin/env python3
"""grind_lint: repo-invariant lint rules the thread-safety annotations can't express.

Clang's -Wthread-safety proves lock discipline (who holds which mutex where);
this linter enforces the *repo-specific* concurrency and hot-path invariants
that sit above any single lock:

  untimed-acquire          no untimed WorkspacePool acquire( outside the pool
                           itself — the exact bug class of PR 8, where a batch
                           slice's untimed pool_.acquire() bypassed
                           lease_timeout and wedged deadline-carrying batches.
                           (The slice path is gone: run_batch now loops over
                           submit(), and the service has one lease path.)
  throw-in-omp-parallel    no `throw` lexically inside an `#pragma omp
                           parallel` region — an exception escaping an OpenMP
                           region is std::terminate; kernels early-out and
                           re-poll the cancel token serially instead.
  kernel-heap-alloc        no explicit heap allocation (new / make_unique /
                           make_shared / malloc) or thread sleeps in the
                           steady-state traversal kernels
                           (src/engine/traverse_*) — PR 1's zero-allocation
                           steady state is a measured contract (the
                           counting-allocator audit in bench_kernels_micro);
                           container growth must go through the workspace
                           pools, never ad-hoc allocation.
  kernel-unpooled-scratch  no `TraversalWorkspace*` parameter and no direct
                           `Bitmap(...)` construction in the traversal
                           kernels (src/engine/traverse_*) or the frontier
                           conversions (src/frontier/) — every kernel takes
                           a required `TraversalWorkspace&` and draws its
                           bitmaps from the pool, so the nullable-workspace
                           fallback path (and its per-call allocations)
                           cannot come back.
  kernel-bare-next-set     no bare `next.set(` in src/engine/traverse_* —
                           the single-writer kernels mark next-frontier bits
                           through the setter with_bit_setter picks once per
                           call (atomic when partition boundaries share a
                           bitmap word, Partitioning::word_aligned); a bare
                           plain store races whenever boundary_align < 64.
  thread-state-unpadded    per-thread mutable state in src/engine/ and
                           src/frontier/ lives in the cache-line-padded
                           engine::ThreadSlot — no container of vectors
                           (`std::vector<std::vector<...>>` and kin) and no
                           subscript by `omp_get_thread_num()` into anything
                           but a slot array.  Adjacent vector headers share a
                           cache line, so 2–4 threads appending to their own
                           lists write one line, and the sparse push stopped
                           scaling past one thread.
  service-engine-unleased  no engine::Engine construction in src/service/
                           without a leased workspace argument — an Engine
                           default-allocates private scratch, so a
                           lease-less construction silently reintroduces
                           per-query allocation and dodges pool capacity
                           (admission control's only throttle).
  tsan-supp-undocumented   every suppression line in tsan.supp carries its
                           own justification comment directly above it —
                           an unexplained suppression is how a real race
                           hides in plain sight.

Suppressions: a violation is waived by a comment on the same line, or in the
comment block immediately above it, of the form

    // grind-lint: allow(<rule-id>) <non-empty justification>

The justification is mandatory; an allow() with no reason, or naming an
unknown rule, is itself an error.  docs/STATIC_ANALYSIS.md documents every
rule with rationale and the procedure for adding one.

Usage:
    grind_lint.py [--root DIR]     lint the tree (ctest test `grind_lint`)
    grind_lint.py --self-test      prove every rule fires on a seeded
                                   violation and stays quiet on clean code
                                   (ctest test `grind_lint_selftest`)
    grind_lint.py --list-rules     print the rule table
"""

import argparse
import pathlib
import re
import sys
import tempfile

# --------------------------------------------------------------------------
# Source scanning helpers
# --------------------------------------------------------------------------


def strip_code(text):
    """Blank out comments and string/char literals, preserving line structure.

    Rules match against the stripped text so a `throw` in an error message or
    an `acquire(` in a doc comment can never false-positive; suppression
    comments are searched in the *original* text.
    """
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | 'str' | 'chr'
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "str"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "chr"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = None
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


ALLOW_RE = re.compile(r"grind-lint:\s*allow\(([a-z0-9-]+)\)\s*(.*)")
COMMENT_LINE_RE = re.compile(r"^\s*(//|\*|/\*|#)")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line  # 1-based
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def find_allows(lines):
    """Map line index -> (rule, justification) for every allow comment."""
    allows = {}
    for idx, line in enumerate(lines):
        m = ALLOW_RE.search(line)
        if m:
            allows[idx] = (m.group(1), m.group(2).strip())
    return allows


def is_suppressed(violation_idx, rule, lines, allows, errors, path):
    """True when an allow(rule) covers `violation_idx` (0-based).

    An allow comment covers its own line and the first code line after the
    contiguous comment block it sits in.  A justification is mandatory.
    """
    candidates = [violation_idx]
    j = violation_idx - 1
    while j >= 0 and COMMENT_LINE_RE.match(lines[j]):
        candidates.append(j)
        j -= 1
    for idx in candidates:
        if idx in allows:
            allowed_rule, why = allows[idx]
            if allowed_rule != rule:
                continue
            if len(why) < 8:
                errors.append(
                    Violation(
                        path,
                        idx + 1,
                        "allow-without-justification",
                        "grind-lint allow() requires a justification "
                        "(>= 8 chars) after the closing paren",
                    )
                )
            return True
    return False


# --------------------------------------------------------------------------
# Rules.  Each rule: id, scope(path)->bool, check(path, text)->[(line0, msg)]
# where `text` is comment/string-stripped and line0 is 0-based.
# --------------------------------------------------------------------------


def rule_untimed_acquire(path, text):
    """Flag `.acquire(` / `->acquire(` except try_acquire* variants."""
    out = []
    pat = re.compile(r"(\.|->)\s*acquire\s*\(")
    for idx, line in enumerate(text.splitlines()):
        for m in pat.finditer(line):
            # try_acquire / try_acquire_until share the suffix; skip them.
            before = line[: m.start()]
            if before.rstrip().endswith("try_") or "try_acquire" in line[m.start() - 4 : m.end()]:
                continue
            out.append(
                (
                    idx,
                    "untimed acquire() outside WorkspacePool — use "
                    "try_acquire_until so lease_timeout/deadlines bound the "
                    "wait (the PR-8 batch-wedge bug class)",
                )
            )
    return out


def scope_untimed_acquire(rel):
    return (
        rel.startswith("src/")
        and rel != "src/service/workspace_pool.hpp"  # the pool itself
    )


def omp_parallel_regions(text):
    """Yield (start, end) 0-based line ranges of #pragma omp parallel blocks."""
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        if not re.search(r"#\s*pragma\s+omp\s+parallel\b", line):
            continue
        # The region is the next statement: a brace block, or a single
        # statement (loop nest for `omp parallel for`).  Walk forward to the
        # first `{` and match braces; fall back to the following statement's
        # extent (until `;` at depth 0) when no block opens.
        depth = 0
        opened = False
        j = idx
        while j < len(lines):
            for c in lines[j]:
                if not opened:
                    if c == "{":
                        opened = True
                        depth = 1
                    elif c == ";" and j > idx:
                        yield (idx, j)
                        j = len(lines)
                        break
                else:
                    if c == "{":
                        depth += 1
                    elif c == "}":
                        depth -= 1
                        if depth == 0:
                            yield (idx, j)
                            j = len(lines)
                            break
            else:
                j += 1
                continue
            break


def rule_throw_in_omp_parallel(path, text):
    out = []
    lines = text.splitlines()
    throw_re = re.compile(r"\bthrow\b")
    for start, end in omp_parallel_regions(text):
        for idx in range(start, min(end + 1, len(lines))):
            if throw_re.search(lines[idx]):
                out.append(
                    (
                        idx,
                        "`throw` inside an OpenMP parallel region is "
                        "std::terminate — early-out and re-poll the cancel "
                        "token serially after the region instead",
                    )
                )
    return out


def scope_src(rel):
    return rel.startswith("src/")


KERNEL_ALLOC_PATTERNS = [
    (re.compile(r"\bnew\b"), "operator new"),
    (re.compile(r"\bstd::make_unique\b|\bmake_unique<"), "make_unique"),
    (re.compile(r"\bstd::make_shared\b|\bmake_shared<"), "make_shared"),
    (re.compile(r"\b(m|c|re)alloc\s*\("), "malloc-family call"),
    (re.compile(r"\bsleep_for\b|\bsleep_until\b"), "thread sleep"),
]


def rule_kernel_heap_alloc(path, text):
    out = []
    for idx, line in enumerate(text.splitlines()):
        for pat, what in KERNEL_ALLOC_PATTERNS:
            if pat.search(line):
                out.append(
                    (
                        idx,
                        f"{what} in a steady-state traversal kernel — the "
                        "zero-allocation contract routes scratch through "
                        "TraversalWorkspace pools (bench_kernels_micro "
                        "audits 0 allocs/iter)",
                    )
                )
    return out


def scope_traverse_kernels(rel):
    return re.match(r"src/engine/traverse_[^/]+$", rel) is not None


UNPOOLED_SCRATCH_PATTERNS = [
    (
        re.compile(r"\bTraversalWorkspace\s*\*"),
        "nullable `TraversalWorkspace*` — kernels and frontier conversions "
        "take a required `TraversalWorkspace&`; callers without one build a "
        "local workspace",
    ),
    (
        re.compile(r"\bBitmap\s*\(\s*[^)\s]|\bBitmap\s+\w+\s*[({]\s*[^)}\s]"),
        "direct Bitmap construction — acquire scratch bitmaps from the "
        "workspace pool (ws.acquire_bitmap) so steady state allocates nothing",
    ),
]


def rule_kernel_unpooled_scratch(path, text):
    out = []
    for idx, line in enumerate(text.splitlines()):
        for pat, msg in UNPOOLED_SCRATCH_PATTERNS:
            if pat.search(line):
                out.append((idx, msg))
    return out


def scope_kernels_and_frontier(rel):
    return scope_traverse_kernels(rel) or rel.startswith("src/frontier/")


BARE_NEXT_SET_RE = re.compile(r"\bnext\s*\.\s*set\s*\(")


def rule_kernel_bare_next_set(path, text):
    return [
        (
            idx,
            "bare `next.set(` in a traversal kernel — mark next-frontier "
            "bits through the with_bit_setter setter (atomic when partition "
            "boundaries are not word-aligned) or use set_atomic",
        )
        for idx, line in enumerate(text.splitlines())
        if BARE_NEXT_SET_RE.search(line)
    ]


NESTED_VECTOR_RE = re.compile(
    r"\bstd::(vector|array|deque)\s*<\s*std::vector\s*<"
)
THREAD_SUBSCRIPT_RE = re.compile(
    r"(\w+)\s*\[\s*(?:static_cast\s*<[^>]*>\s*\()?\s*"
    r"omp_get_thread_num\s*\(\s*\)"
)


def rule_thread_state_unpadded(path, text):
    out = []
    for idx, line in enumerate(text.splitlines()):
        if NESTED_VECTOR_RE.search(line):
            out.append(
                (
                    idx,
                    "container of vectors — per-thread lists belong in "
                    "engine::ThreadSlot (one cache line per thread, "
                    "ws.thread_slots(nt)); adjacent vector headers "
                    "false-share when threads append",
                )
            )
        for m in THREAD_SUBSCRIPT_RE.finditer(line):
            if "slot" not in m.group(1).lower():
                out.append(
                    (
                        idx,
                        f"`{m.group(1)}[omp_get_thread_num()]` — per-thread "
                        "mutable state goes in a padded engine::ThreadSlot "
                        "array, not a packed per-thread container",
                    )
                )
    return out


def scope_engine_and_frontier(rel):
    return rel.startswith("src/engine/") or rel.startswith("src/frontier/")


ENGINE_CTOR_RE = re.compile(
    r"\bengine::Engine\s+\w+\s*\(([^;]*)\)|\bEngine\s+\w+\s*\(([^;]*)\)"
)
WORKSPACE_ARG_RE = re.compile(r"(^|[^\w])(\*?\s*lease|ws|workspace)\b")


def rule_service_engine_unleased(path, text):
    out = []
    for idx, line in enumerate(text.splitlines()):
        m = ENGINE_CTOR_RE.search(line)
        if not m:
            continue
        args = m.group(1) or m.group(2) or ""
        if not WORKSPACE_ARG_RE.search(args):
            out.append(
                (
                    idx,
                    "engine::Engine constructed in src/service/ without a "
                    "leased workspace — a lease-less Engine allocates "
                    "private scratch per query and bypasses WorkspacePool "
                    "capacity (admission control's only throttle)",
                )
            )
    return out


def scope_service(rel):
    return rel.startswith("src/service/")


def rule_tsan_supp_undocumented(path, text):
    """tsan.supp: each suppression must have a comment directly above it."""
    out = []
    lines = text.splitlines()
    for idx, line in enumerate(lines):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        prev = lines[idx - 1].strip() if idx > 0 else ""
        if not prev.startswith("#"):
            out.append(
                (
                    idx,
                    "undocumented TSan suppression — every suppression line "
                    "needs a one-line justification comment directly above "
                    "it (what races, why it is benign/uninstrumented)",
                )
            )
    return out


def scope_tsan_supp(rel):
    return rel == "tsan.supp"


class Rule:
    def __init__(self, rule_id, scope, check, raw_text, description):
        self.rule_id = rule_id
        self.scope = scope
        self.check = check
        self.raw_text = raw_text  # run on original (uncommented) text
        self.description = description


RULES = [
    Rule(
        "untimed-acquire",
        scope_untimed_acquire,
        rule_untimed_acquire,
        False,
        "no untimed pool acquire( outside WorkspacePool (PR-8 bug class)",
    ),
    Rule(
        "throw-in-omp-parallel",
        scope_src,
        rule_throw_in_omp_parallel,
        False,
        "no `throw` inside an OpenMP parallel region",
    ),
    Rule(
        "kernel-heap-alloc",
        scope_traverse_kernels,
        rule_kernel_heap_alloc,
        False,
        "no heap allocation / sleeps in src/engine/traverse_* kernels",
    ),
    Rule(
        "kernel-unpooled-scratch",
        scope_kernels_and_frontier,
        rule_kernel_unpooled_scratch,
        False,
        "no nullable workspace / direct Bitmap scratch in kernels or frontier",
    ),
    Rule(
        "kernel-bare-next-set",
        scope_traverse_kernels,
        rule_kernel_bare_next_set,
        False,
        "no bare next.set( in src/engine/traverse_* (use with_bit_setter)",
    ),
    Rule(
        "thread-state-unpadded",
        scope_engine_and_frontier,
        rule_thread_state_unpadded,
        False,
        "per-thread state in src/engine/, src/frontier/ uses padded ThreadSlot",
    ),
    Rule(
        "service-engine-unleased",
        scope_service,
        rule_service_engine_unleased,
        False,
        "no Engine construction in src/service/ without a leased workspace",
    ),
    Rule(
        "tsan-supp-undocumented",
        scope_tsan_supp,
        rule_tsan_supp_undocumented,
        True,
        "every tsan.supp suppression carries a justification comment",
    ),
]

RULE_IDS = {r.rule_id for r in RULES}

SOURCE_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")


def lint_tree(root):
    root = pathlib.Path(root)
    violations = []
    files = []
    src = root / "src"
    if src.is_dir():
        files.extend(
            p for p in sorted(src.rglob("*")) if p.suffix in SOURCE_SUFFIXES
        )
    supp = root / "tsan.supp"
    if supp.is_file():
        files.append(supp)

    for path in files:
        rel = path.relative_to(root).as_posix()
        original = path.read_text(encoding="utf-8", errors="replace")
        stripped = strip_code(original)
        orig_lines = original.splitlines()
        allows = find_allows(orig_lines)
        used_allow_lines = set()
        for rule in RULES:
            if not rule.scope(rel):
                continue
            text = original if rule.raw_text else stripped
            for idx, msg in rule.check(rel, text):
                errors = []
                if is_suppressed(idx, rule.rule_id, orig_lines, allows, errors, rel):
                    # Record which allow line actually covered something.
                    for j in [idx] + list(range(idx - 1, -1, -1)):
                        if j in allows and allows[j][0] == rule.rule_id:
                            used_allow_lines.add(j)
                            break
                        if j != idx and not COMMENT_LINE_RE.match(orig_lines[j]):
                            break
                    violations.extend(errors)
                else:
                    violations.append(Violation(rel, idx + 1, rule.rule_id, msg))
        # Allow comments naming unknown rules are themselves errors — a
        # typo'd rule id would otherwise silently suppress nothing forever.
        for idx, (allowed_rule, _why) in allows.items():
            if allowed_rule not in RULE_IDS:
                violations.append(
                    Violation(
                        rel,
                        idx + 1,
                        "allow-unknown-rule",
                        f"grind-lint allow() names unknown rule "
                        f"'{allowed_rule}' (known: {sorted(RULE_IDS)})",
                    )
                )
    return violations


# --------------------------------------------------------------------------
# Self-test: every rule must fire on a seeded violation and stay quiet on
# clean code — the linter is itself tested, so a rule can't silently rot.
# --------------------------------------------------------------------------

SELF_TESTS = [
    # (name, relative path, file content, rule id, expect_fire)
    (
        "untimed-acquire fires on a bare pool acquire",
        "src/service/batch_runner.cpp",
        "void f(P& pool_) {\n  auto lease = pool_.acquire(domain);\n}\n",
        "untimed-acquire",
        True,
    ),
    (
        "untimed-acquire ignores try_acquire_until",
        "src/service/batch_runner.cpp",
        "void f(P& pool_) {\n"
        "  auto l = pool_.try_acquire_until(deadline, domain);\n"
        "  auto m = pool_.try_acquire(domain);\n}\n",
        "untimed-acquire",
        False,
    ),
    (
        "untimed-acquire exempts the pool's own header",
        "src/service/workspace_pool.hpp",
        "Lease acquire(int domain) { return take(domain); }\n",
        "untimed-acquire",
        False,
    ),
    (
        "untimed-acquire ignores comments and strings",
        "src/service/notes.cpp",
        "// workers block in pool_.acquire() here\n"
        'const char* msg = "pool_.acquire( timed out";\n',
        "untimed-acquire",
        False,
    ),
    (
        "untimed-acquire honours a justified allow comment",
        "src/service/batch_runner.cpp",
        "void f(P& pool_) {\n"
        "  // grind-lint: allow(untimed-acquire) caller asked for an\n"
        "  // unbounded wait; shutdown close() still wakes it.\n"
        "  auto lease = pool_.acquire(domain);\n}\n",
        "untimed-acquire",
        False,
    ),
    (
        "allow without justification is itself an error",
        "src/service/batch_runner.cpp",
        "void f(P& pool_) {\n"
        "  // grind-lint: allow(untimed-acquire)\n"
        "  auto lease = pool_.acquire(domain);\n}\n",
        "allow-without-justification",
        True,
    ),
    (
        "allow naming an unknown rule is an error",
        "src/service/batch_runner.cpp",
        "// grind-lint: allow(no-such-rule) because reasons aplenty\n"
        "int x = 0;\n",
        "allow-unknown-rule",
        True,
    ),
    (
        "throw-in-omp-parallel fires inside a parallel block",
        "src/engine/kernel.hpp",
        "void f() {\n"
        "#pragma omp parallel\n"
        "  {\n"
        "    if (bad) throw std::runtime_error(\"x\");\n"
        "  }\n"
        "}\n",
        "throw-in-omp-parallel",
        True,
    ),
    (
        "throw-in-omp-parallel quiet for a throw outside the region",
        "src/engine/kernel.hpp",
        "void f() {\n"
        "#pragma omp parallel\n"
        "  {\n"
        "    work();\n"
        "  }\n"
        "  if (bad) throw std::runtime_error(\"x\");\n"
        "}\n",
        "throw-in-omp-parallel",
        False,
    ),
    (
        "kernel-heap-alloc fires on new in a traverse kernel",
        "src/engine/traverse_seeded.hpp",
        "void k() {\n  auto* buf = new int[64];\n}\n",
        "kernel-heap-alloc",
        True,
    ),
    (
        "kernel-heap-alloc fires on sleep_for in a traverse kernel",
        "src/engine/traverse_seeded.hpp",
        "void k() {\n"
        "  std::this_thread::sleep_for(std::chrono::milliseconds(1));\n}\n",
        "kernel-heap-alloc",
        True,
    ),
    (
        "kernel-heap-alloc ignores `nowait` and non-kernel files",
        "src/engine/traverse_seeded.hpp",
        "void k() {\n#pragma omp for schedule(dynamic, 16) nowait\n"
        "  for (int i = 0; i < n; ++i) buf.push_back(i);\n}\n",
        "kernel-heap-alloc",
        False,
    ),
    (
        "kernel-heap-alloc out of scope outside traverse_*",
        "src/engine/workspace_seeded.hpp",
        "void k() {\n  auto* buf = new int[64];\n}\n",
        "kernel-heap-alloc",
        False,
    ),
    (
        "kernel-unpooled-scratch fires on a nullable workspace parameter",
        "src/engine/traverse_seeded.hpp",
        "Frontier k(const Graph& g, Frontier& f,\n"
        "           TraversalWorkspace* ws = nullptr) {\n  return f;\n}\n",
        "kernel-unpooled-scratch",
        True,
    ),
    (
        "kernel-unpooled-scratch fires on a scratch Bitmap in a kernel",
        "src/engine/traverse_seeded.hpp",
        "void k(const Graph& g) {\n  Bitmap next(g.num_vertices());\n}\n",
        "kernel-unpooled-scratch",
        True,
    ),
    (
        "kernel-unpooled-scratch fires on Bitmap(n) in the frontier",
        "src/frontier/frontier.cpp",
        "void Frontier::to_dense() {\n  dense_ = Bitmap(n_);\n}\n",
        "kernel-unpooled-scratch",
        True,
    ),
    (
        "kernel-unpooled-scratch quiet on pooled bitmaps and resets",
        "src/frontier/frontier.cpp",
        "void Frontier::to_dense(engine::TraversalWorkspace& ws) {\n"
        "  dense_ = ws.acquire_bitmap(n_);\n"
        "  const Bitmap& in = f.bitmap();\n"
        "  dense_ = Bitmap();\n}\n",
        "kernel-unpooled-scratch",
        False,
    ),
    (
        "kernel-unpooled-scratch out of scope outside kernels/frontier",
        "src/engine/workspace_seeded.hpp",
        "Bitmap acquire(std::size_t bits) { return Bitmap(bits); }\n",
        "kernel-unpooled-scratch",
        False,
    ),
    (
        "kernel-bare-next-set fires on a plain next-frontier store",
        "src/engine/traverse_seeded.hpp",
        "void k() {\n  if (op.update(s, d, w)) next.set(d);\n}\n",
        "kernel-bare-next-set",
        True,
    ),
    (
        "kernel-bare-next-set quiet on set_atomic and the chosen setter",
        "src/engine/traverse_seeded.hpp",
        "void k() {\n  if (op.update_atomic(s, d, w)) next.set_atomic(d);\n"
        "  if (op.update(s, d, w)) mark(d);\n}\n",
        "kernel-bare-next-set",
        False,
    ),
    (
        "kernel-bare-next-set out of scope outside traverse_*",
        "src/frontier/frontier.cpp",
        "void f() {\n  next.set(v);\n}\n",
        "kernel-bare-next-set",
        False,
    ),
    (
        "thread-state-unpadded fires on per-thread vectors by thread id",
        "src/engine/vertex_map.hpp",
        "Frontier m(int nt) {\n"
        "  std::vector<std::vector<vid_t>> buffers(nt);\n"
        "#pragma omp parallel\n"
        "  {\n"
        "    auto& buf = buffers[static_cast<std::size_t>(omp_get_thread_num())];\n"
        "  }\n}\n",
        "thread-state-unpadded",
        True,
    ),
    (
        "thread-state-unpadded fires on a packed per-thread counter",
        "src/frontier/frontier.cpp",
        "void f(std::vector<eid_t>& counts) {\n"
        "  counts[omp_get_thread_num()] += 1;\n}\n",
        "thread-state-unpadded",
        True,
    ),
    (
        "thread-state-unpadded quiet on padded slots and a justified pool",
        "src/engine/workspace_seeded.hpp",
        "void k(std::vector<ThreadSlot>& slots) {\n"
        "  ThreadSlot& slot = slots[omp_get_thread_num()];\n}\n"
        "// grind-lint: allow(thread-state-unpadded) a pool of retired lists,\n"
        "// touched only by the thread driving the traversal.\n"
        "std::vector<std::vector<vid_t>> lists_;\n",
        "thread-state-unpadded",
        False,
    ),
    (
        "thread-state-unpadded out of scope outside engine/frontier",
        "src/partition/seeded.cpp",
        "std::vector<std::vector<vid_t>> members(parts);\n",
        "thread-state-unpadded",
        False,
    ),
    (
        "service-engine-unleased fires on a lease-less Engine",
        "src/service/runner.cpp",
        "void f(const graph::Graph& g, engine::Options opts) {\n"
        "  engine::Engine eng(g, opts);\n}\n",
        "service-engine-unleased",
        True,
    ),
    (
        "service-engine-unleased quiet when a workspace is passed",
        "src/service/runner.cpp",
        "void f(const graph::Graph& g, engine::Options opts,\n"
        "       engine::TraversalWorkspace& ws) {\n"
        "  engine::Engine eng(g, opts, ws);\n}\n",
        "service-engine-unleased",
        False,
    ),
    (
        "service-engine-unleased quiet when dereferencing a lease",
        "src/service/runner.cpp",
        "void f(const graph::Graph& g, engine::Options opts, Lease& lease) {\n"
        "  engine::Engine eng(g, opts, *lease);\n}\n",
        "service-engine-unleased",
        False,
    ),
    (
        "tsan-supp-undocumented fires on a bare suppression",
        "tsan.supp",
        "# header comment\n\nrace:libfoo\ncalled_from_lib:libbar\n",
        "tsan-supp-undocumented",
        True,
    ),
    (
        "tsan-supp-undocumented quiet when each line is justified",
        "tsan.supp",
        "# libfoo's barrier is uninstrumented\n"
        "race:libfoo\n"
        "# libbar loaded without TSan interceptors\n"
        "called_from_lib:libbar\n",
        "tsan-supp-undocumented",
        False,
    ),
]


def run_self_test():
    failures = []
    for name, rel, content, rule_id, expect_fire in SELF_TESTS:
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(content, encoding="utf-8")
            violations = lint_tree(tmp)
            fired = any(v.rule == rule_id for v in violations)
            if fired != expect_fire:
                detail = "; ".join(str(v) for v in violations) or "(no findings)"
                failures.append(
                    f"FAIL {name}: expected rule '{rule_id}' "
                    f"{'to fire' if expect_fire else 'to stay quiet'} "
                    f"on {rel}; got: {detail}"
                )
    for f in failures:
        print(f)
    total = len(SELF_TESTS)
    print(f"self-test: {total - len(failures)}/{total} cases passed")
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--root",
        default=str(pathlib.Path(__file__).resolve().parent.parent),
        help="repository root to lint (default: this script's repo)",
    )
    ap.add_argument("--self-test", action="store_true", help="run rule self-tests")
    ap.add_argument("--list-rules", action="store_true", help="print the rule table")
    args = ap.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id:26s} {rule.description}")
        return 0
    if args.self_test:
        return run_self_test()

    violations = lint_tree(args.root)
    for v in violations:
        print(v)
    if violations:
        print(f"grind_lint: {len(violations)} violation(s)")
        return 1
    print("grind_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
