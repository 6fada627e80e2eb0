#!/usr/bin/env python3
"""Checks that every public function in src/ headers has a caller outside tests/.

    python3 tests/build/test_only_api_test.py           # the check
    python3 tests/build/test_only_api_test.py --list    # print the census

A public function is a function declared at namespace scope or in the public
part of a class or struct in a header under src/. It counts as used when its
name is called (`name(`) or referenced as a function (`&name`, `X::name`) in
a C++ file under src/, tools/, examples/ or perfbench/, other than at a
declaration or an out-of-line definition. Comments, string literals and
variables or data members that share the name do not count. A function that
only tests/ call is either a counter that explains a run, which belongs in
`scenario_runner --json`, or surface to delete. The exceptions are reference
implementations and checks that tests compare the program against; they are
named in ALLOWLIST with the reason. The check fails on a test-only name
missing from ALLOWLIST and on an ALLOWLIST entry that is no longer test-only.

A use counts only in a file that includes, directly or through other
headers, the header declaring the function (or is that header). Within those
files the match is by name, so a function whose name some other function's
call shares there counts as used. Constructors, destructors and operators are
never listed.
"""

import functools
import os
import re
import sys
import tempfile
import unittest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
CALLER_DIRS = ("src", "tools", "examples", "perfbench")
CPP_SUFFIXES = (".hpp", ".cpp", ".h", ".cc")

# Qualified name -> why it stays with only tests/ calling it.
ALLOWLIST = {
    "net::FairShareSolver::full_solve":
        "reference solve the differential tests compare the resumed fills against",
    "grid::TransferManager::predicted_rate_mbps_reference":
        "reference rate the probe-cache tests compare predicted_rate_mbps against",
    "core::GridSystem::audit_bookkeeping":
        "scheduler bookkeeping check the integration and fault tests run after a run",
    "exp::parse_digest_document":
        "reads the golden digest document the conformance tests compare runs against",
    "core::all_algorithms":
        "the registry the per-algorithm pins check they cover, row for row",
    "core::ready_comparator_names":
        "the comparator table the ready-policy property tests check, row for row",
    "sim::Engine::run_all":
        "drains a test's hand-built schedule without a horizon (44 test call sites)",
    "util::Rng::min":
        "UniformRandomBitGenerator interface: <random> distributions call it inside the "
        "standard library, where the scan does not look",
    "util::Rng::max":
        "UniformRandomBitGenerator interface: <random> distributions call it inside the "
        "standard library, where the scan does not look",
    "sim::ShardEngine::now":
        "the shard clocks the shard-engine tests check at a run_until end; post()'s "
        "lookahead check reads the same clocks directly",
    "sim::ShardEngine::pending":
        "the event accounting the shard-engine tests check drains to zero; scale runs "
        "export its maximum as pending_max",
    "util::ReservoirSampler::items":
        "the sample the uniformity and seed checks read; the streaming collector's "
        "copy is unread outside tests until it is exported or deleted",
}

KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "case", "catch", "char", "const",
    "consteval", "constexpr", "constinit", "decltype", "default", "delete", "do",
    "double", "else", "explicit", "extern", "float", "for", "friend", "if", "inline",
    "int", "long", "mutable", "new", "noexcept", "operator", "requires", "return",
    "short", "signed", "sizeof", "static", "static_assert", "switch", "template",
    "this", "throw", "try", "typeid", "typename", "unsigned", "using", "virtual",
    "void", "volatile", "while",
}

TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|\d[\w.']*|\S")


def strip_code(text):
    """Blanks comments and string/char literals, keeping offsets and newlines."""
    out = list(text)
    i, n = 0, len(text)

    def blank(a, b):
        for k in range(a, b):
            if out[k] != "\n":
                out[k] = " "

    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            blank(i, j)
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            blank(i, j)
            i = j
        elif text.startswith('R"', i) and (i == 0 or not re.match(r"\w", text[i - 1])):
            m = re.match(r'R"([^(\s]*)\(', text[i:])
            end = text.find(")" + m.group(1) + '"', i) if m else -1
            j = n if end < 0 else end + len(m.group(1)) + 2
            blank(i + 1, j)
            i = j
        elif c in "\"'":
            if c == "'" and i > 0 and text[i - 1].isalnum():  # digit separator
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            blank(i + 1, j)
            i = j + 1
        else:
            i += 1
    return "".join(out)


def tokenize(text):
    return [(m.group(0), m.start()) for m in TOKEN.finditer(strip_code(text))]


def is_ident(tok):
    return re.match(r"[A-Za-z_]\w*$", tok) is not None and tok not in KEYWORDS


class Scope:
    def __init__(self, kind, name, public):
        self.kind = kind  # "namespace", "class", "enum" or "body"
        self.name = name
        self.public = public


def parse_header(tokens):
    """Returns (functions, skip): public function declarations as
    (qualified name, offset), and the offsets of every declared name (functions
    and data members), which do not count as uses."""
    functions, skip = [], set()
    stack = [Scope("namespace", "", True)]
    stmt = []  # tokens of the current declaration at namespace or class scope
    found = None  # the statement's function name token, if any
    i = 0

    def qualify(name):
        parts = [s.name for s in stack if s.name and s.name != "dpjit"]
        return "::".join(parts + [name])

    def class_parts():
        return [s.name for s in stack if s.kind == "class"]

    while i < len(tokens):
        tok, off = tokens[i]
        top = stack[-1]
        if top.kind in ("body", "enum"):
            if tok == "{":
                stack.append(Scope("body", "", False))
            elif tok == "}":
                stack.pop()
                if stack[-1].kind not in ("body", "enum") and found is not None:
                    stmt, found = [], None
            i += 1
            continue
        access = tok in ("public", "private", "protected")
        if access and top.kind == "class" and i + 1 < len(tokens) and tokens[i + 1][0] == ":":
            top.public = tok == "public"
            stmt, found = [], None
            i += 2
            continue
        if tok == "template" and i + 1 < len(tokens) and tokens[i + 1][0] == "<":
            depth, i = 0, i + 1
            while i < len(tokens):
                if tokens[i][0] == "<":
                    depth += 1
                elif tokens[i][0] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            i += 1
            continue
        if tok == ";":
            if found is None and top.kind == "class" and stmt:
                # A data member: its name precedes any initializer or extent.
                words = [t for t, _ in stmt]
                cut = next((k for k, w in enumerate(words) if w in ("=", "[")), len(words))
                if cut > 0 and is_ident(words[cut - 1]):
                    skip.add(stmt[cut - 1][1])
            stmt, found = [], None
            i += 1
            continue
        if tok == "}":
            stack.pop()
            stmt, found = [], None
            i += 1
            continue
        if tok == "{":
            words = [t for t, _ in stmt]
            if found is None and "namespace" in words:
                name = words[-1] if is_ident(words[-1]) and words[-1] != "namespace" else ""
                # An anonymous namespace is private to its translation unit.
                stack.append(Scope("namespace", name, bool(name) and top.public))
                stmt = []
            elif found is None and "enum" in words:
                stack.append(Scope("enum", "", False))
            elif (found is None and "=" not in words
                  and any(w in ("class", "struct", "union") for w in words)):
                key = next(k for k, w in enumerate(words) if w in ("class", "struct", "union"))
                name = next((w for w in words[key + 1:] if is_ident(w) and w != "final"), "")
                stack.append(Scope("class", name, words[key] != "class"))
                stmt = []
            else:
                stack.append(Scope("body", "", False))
            i += 1
            continue
        if tok == "(" and found is None and stmt:
            words = [t for t, _ in stmt]
            prev, prev_off = stmt[-1]
            in_template_args = words.count("<") > words.count(">")  # std::function<R(A)>
            if (is_ident(prev) and "=" not in words and "operator" not in words
                    and words[0] not in ("using", "typedef", "friend")
                    and prev not in class_parts() and "~" not in words[-2:]
                    and not in_template_args):
                found = prev
                skip.add(prev_off)
                if all(s.public for s in stack):
                    functions.append((qualify(prev), prev_off))
            else:
                found = ""
            # Skip the parameter list so its names are not taken for members.
            depth = 0
            while i < len(tokens):
                if tokens[i][0] == "(":
                    depth += 1
                elif tokens[i][0] == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            stmt.append((")", tokens[i][1] if i < len(tokens) else 0))
            i += 1
            continue
        stmt.append((tok, off))
        i += 1
    return functions, skip


def definition_offsets(tokens):
    """Offsets of names defined out of line (`Class::name(` outside any body)."""
    found = set()
    depth = 0  # braces that are not namespaces
    ns_braces = []
    for k, (tok, off) in enumerate(tokens):
        if tok == "{":
            is_ns = any(tokens[j][0] == "namespace" for j in range(max(0, k - 4), k))
            ns_braces.append(is_ns)
            depth += 0 if is_ns else 1
        elif tok == "}" and ns_braces:
            depth -= 0 if ns_braces.pop() else 1
        elif depth == 0 and tok == "::" and k + 2 < len(tokens) and tokens[k + 2][0] == "(":
            found.add(tokens[k + 1][1])
    return found


def source_files(root, dirs):
    for d in dirs:
        for dirpath, _, files in os.walk(os.path.join(root, d)):
            for name in sorted(files):
                if name.endswith(CPP_SUFFIXES):
                    yield os.path.join(dirpath, name)


INCLUDE = re.compile(r'^\s*#\s*include\s*"([^"]+)"', re.MULTILINE)


def include_closures(texts):
    """Maps each file (a root-relative path) to the files it includes, directly
    or transitively, itself included. A quoted include resolves against the
    including file's directory, then against src/."""
    def resolve(rel, name):
        for cand in (os.path.join(os.path.dirname(rel), name), os.path.join("src", name)):
            cand = os.path.normpath(cand).replace(os.sep, "/")
            if cand in texts:
                return cand
        return None

    direct = {rel: {r for r in (resolve(rel, m) for m in INCLUDE.findall(text)) if r}
              for rel, text in texts.items()}
    closures = {}
    for start in direct:
        seen, todo = {start}, [start]
        while todo:
            for nxt in direct[todo.pop()] - seen:
                seen.add(nxt)
                todo.append(nxt)
        closures[start] = seen
    return closures


@functools.lru_cache(maxsize=None)
def test_only_functions(root):
    """Public functions declared under src/ that nothing outside tests/ calls."""
    texts = {}
    for path in source_files(root, CALLER_DIRS):
        with open(path, encoding="utf-8") as f:
            texts[os.path.relpath(path, root).replace(os.sep, "/")] = f.read()
    declared = {}  # qualified name -> (bare name, declaring header)
    users = {}  # bare name -> {(calling file, qualifier before `::` or None)}
    for rel, text in texts.items():
        tokens = tokenize(text)
        skip = definition_offsets(tokens)
        if rel.startswith("src/") and rel.endswith((".hpp", ".h")):
            functions, declared_at = parse_header(tokens)
            skip |= declared_at
            for qualified, _ in functions:
                declared[qualified] = (qualified.rsplit("::", 1)[-1], rel)
        for k, (tok, off) in enumerate(tokens):
            if off in skip or not is_ident(tok):
                continue
            follows = tokens[k + 1][0] if k + 1 < len(tokens) else ""
            precedes = tokens[k - 1][0] if k > 0 else ""
            # A call, or a pointer to the function; not a variable or data
            # member that shares the name, nor a variable constructed with
            # parentheses (`std::vector<char> seen(n, 0)`).
            declares = is_ident(precedes) or precedes == ">"
            if (follows == "(" and not declares) or precedes in ("&", "::"):
                qualifier = tokens[k - 2][0] if precedes == "::" and k > 1 else None
                users.setdefault(tok, set()).add((rel, qualifier))

    closures = include_closures(texts)

    def used(qualified, bare, header):
        # `X::name` names this function only when X is one of its scopes.
        scopes = set(qualified.split("::")[:-1]) | {"dpjit"}
        return any(header in closures[f] and (q is None or q in scopes)
                   for f, q in users.get(bare, ()))

    return tuple(sorted(q for q, (bare, header) in declared.items() if not used(q, bare, header)))


def problems(found, allowlist):
    missing = sorted(set(found) - set(allowlist))
    stale = sorted(set(allowlist) - set(found))
    return missing, stale


class TestOnlyApiTest(unittest.TestCase):
    def test_no_unlisted_test_only_function(self):
        missing, _ = problems(test_only_functions(ROOT), ALLOWLIST)
        self.assertEqual(missing, [], "only tests/ call these: delete them, export them in --json, "
                         "or (reference implementations only) add them to ALLOWLIST")

    def test_allowlist_is_not_stale(self):
        _, stale = problems(test_only_functions(ROOT), ALLOWLIST)
        self.assertEqual(stale, [], "these have callers outside tests/ now (or are gone): "
                         "remove them from ALLOWLIST")

    def test_every_allowlist_entry_has_a_reason(self):
        for name, reason in ALLOWLIST.items():
            self.assertTrue(reason.strip(), name)


FIXTURE_HEADER = """
#pragma once
namespace dpjit::demo {
/// Free function; the tool calls it.
int helper(int x);
class Counter {
 public:
  Counter() = default;
  int used() const { return n_; }   // called by the tool
  int unused() const;                // called only by a test
  void bump(int by) { n_ += helper(by); }
  int total = 0;
 private:
  int hidden() const;
  int n_ = 0;
};
}  // namespace dpjit::demo
"""

FIXTURE_SOURCE = """
#include "demo/counter.hpp"
namespace dpjit::demo {
int helper(int x) { return x; }
int Counter::unused() const { return n_; }  // unused() here is a definition
int Counter::hidden() const { return 0; }
}  // namespace dpjit::demo
"""

FIXTURE_TOOL = """
#include "demo/counter.hpp"
int main() {
  dpjit::demo::Counter c;
  c.bump(2);
  // c.unused() in a comment is not a call, nor is a variable of that name
  const char* s = "unused()";
  const int unused = 1;
  return c.used() + c.total + (s != nullptr) + unused;
}
"""

# Calls an unrelated `unused()` without including counter.hpp: it does not
# make demo::Counter::unused used.
FIXTURE_OTHER_TOOL = """
struct Queue {
  int unused() const { return 0; }
};
int run_queue() { Queue q; return q.unused(); }
"""

FIXTURE_TEST = """
#include "demo/counter.hpp"
int f() { dpjit::demo::Counter c; return c.unused(); }
"""


class FixtureTest(unittest.TestCase):
    """The scanner on a five-file tree with one test-only member function, whose
    name a file that does not include its header calls on another type."""

    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()
        for rel, text in (("src/demo/counter.hpp", FIXTURE_HEADER),
                          ("src/demo/counter.cpp", FIXTURE_SOURCE),
                          ("tools/main.cpp", FIXTURE_TOOL),
                          ("tools/other.cpp", FIXTURE_OTHER_TOOL),
                          ("tests/counter_test.cpp", FIXTURE_TEST)):
            path = os.path.join(self.dir.name, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as f:
                f.write(text)

    def tearDown(self):
        self.dir.cleanup()

    def test_unlisted_test_only_name_fails(self):
        found = test_only_functions(self.dir.name)
        self.assertEqual(found, ("demo::Counter::unused",))
        self.assertEqual(problems(found, {}), (["demo::Counter::unused"], []))

    def test_listed_name_passes_and_stale_entry_fails(self):
        found = test_only_functions(self.dir.name)
        self.assertEqual(problems(found, {"demo::Counter::unused": "reference"}), ([], []))
        self.assertEqual(problems(found, {"demo::Counter::unused": "r", "demo::helper": "r"}),
                         ([], ["demo::helper"]))


if __name__ == "__main__":
    if sys.argv[1:] == ["--list"]:
        for name in test_only_functions(ROOT):
            print(name + ("  (allowlisted)" if name in ALLOWLIST else ""))
        sys.exit(0)
    unittest.main()
