"""Which code the two sides of each congruence share.

Every congruence is checked by a batch, `partial(check_shard, lhs, rhs)` at
the top level of some module of the package.  The package is read with
`ast`: each top-level definition (a function, a class, or an assignment such
as the memo `euler._stream`) is a node, with an edge to every top-level name
it mentions, relative imports resolved to where the name is defined.  A
batch's shared set is the intersection of its two kernels' transitive
closures.  It must equal the batch's SHARED entry, and each entry says why
the sharing is there and what a fault in it could hide.  A new batch is
found without edits; a new shared name fails and prints its path from each
side.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "aconst"

_CONTEXT = {"modular.PrimeCtx", "modular.Rational", "modular.rational_mod"}
_QUOTIENT = {"modular.PrimeCtx", "modular.Rational", "euler.fermat_quotient",
             "modular.rational_pow_mod_p2"}

#: batch -> (the names both kernels reach, why)
SHARED = {
    "dobinski._dobinski_batch": (
        {"modular.PrimeCtx"},
        "the check loop's prime context; the left side reads only the window's "
        "table of sums, the right only the coefficient numerators and D(0..r-1)"),
    "euler._mascheroni_batch": (
        _CONTEXT,
        "the prime context and the reduction of a rational mod p: the left side "
        "reads Gregory residue streams, the right Wilson and Fermat quotients"),
    "euler._interlude_batch": (
        _CONTEXT,
        "the prime context and the reduction of a rational mod p: the left side "
        "reads Gregory residue streams, the right Fermat quotients"),
    "euler._eisenstein_batch": (
        _CONTEXT,
        "the prime context and the reduction of a rational mod p: the left side "
        "is a truncated log series, the right Fermat quotients"),
    "euler._kluyver_batch": (
        _CONTEXT | {"euler._ell_component"} | _QUOTIENT,
        "gamma_K subtracts ell(x+m+1), which the right side also reads: a fault "
        "e there moves left - right by -H_m e, so it is missed where H_m = 0 "
        "mod p, which is m = 3 at p = 11"),
    "euler._logadd_batch": (
        _QUOTIENT,
        "the theorem is a property of q_p itself: both sides are fermat_quotient, "
        "so a fault that keeps q_p additive (q -> c q) passes"),
}


def _defined(node):
    """The names a top-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return []


def package_graph(package=PACKAGE):
    """(edges, batches): each qualified top-level name ("euler._ell") -> the
    qualified names it mentions, and each batch -> its (lhs, rhs) kernels."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    scopes, modules = {}, {}
    for mod, tree in trees.items():
        scope, aliases = {}, {}
        for node in ast.walk(tree):  # imports inside functions too, as cache.py's
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        scope[local] = f"{node.module}.{alias.name}"
                    else:  # from . import euler
                        aliases[local] = alias.name
        for node in tree.body:
            scope.update((name, f"{mod}.{name}") for name in _defined(node))
        scopes[mod], modules[mod] = scope, aliases
    edges, batches = {}, {}
    for mod, tree in trees.items():
        scope, aliases = scopes[mod], modules[mod]
        for node in tree.body:
            refs = set()
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and n.id in scope:
                    refs.add(scope[n.id])
                elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                      and n.value.id in aliases):
                    refs.add(f"{aliases[n.value.id]}.{n.attr}")
            for name in _defined(node):
                edges.setdefault(f"{mod}.{name}", set()).update(refs - {f"{mod}.{name}"})
            value = getattr(node, "value", None)
            if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id == "partial" and len(value.args) == 3
                    and all(isinstance(a, ast.Name) for a in value.args)
                    and scope.get(value.args[0].id) == "_parallel.check_shard"):
                lhs, rhs = (scope[a.id] for a in value.args[1:])
                for name in _defined(node):
                    batches[f"{mod}.{name}"] = (lhs, rhs)
    return edges, batches


def reach(edges, start):
    """name -> the path from start to it, for every name start reaches."""
    paths, todo = {start: [start]}, [start]
    for name in todo:  # breadth first, so each path is a shortest one
        for nxt in sorted(edges.get(name, ())):
            if nxt not in paths:
                paths[nxt] = paths[name] + [nxt]
                todo.append(nxt)
    return paths


def shared(edges, lhs, rhs):
    """name -> (its path from lhs, its path from rhs), for each name both reach."""
    left, right = reach(edges, lhs), reach(edges, rhs)
    return {name: (left[name], right[name]) for name in left.keys() & right.keys()}


EDGES, BATCHES = package_graph()


def test_finds_every_batch():
    assert set(BATCHES) == set(SHARED)
    assert len(BATCHES) == 6


@pytest.mark.parametrize("batch", sorted(BATCHES.keys() | SHARED.keys()))
def test_sides_share_only_what_is_allowed(batch):
    assert batch in BATCHES, f"{batch} is allowlisted but no batch binds it"
    assert batch in SHARED, f"{batch} has no SHARED entry"
    allowed, reason = SHARED[batch]
    assert reason.strip()
    found = shared(EDGES, *BATCHES[batch])
    extra = "\n".join(f"{name}\n  lhs: {' -> '.join(found[name][0])}\n"
                      f"  rhs: {' -> '.join(found[name][1])}"
                      for name in sorted(found.keys() - allowed))
    assert not extra, f"{batch}: both sides reach\n{extra}"
    assert allowed <= found.keys(), f"{batch}: stale entries {sorted(allowed - found.keys())}"


def test_a_memo_counts_as_shared(tmp_path):
    # a left kernel that reads the right side's memo shares the memo and all
    # it reaches, across a relative import
    (tmp_path / "_parallel.py").write_text("def check_shard(lhs, rhs, payload): pass\n")
    (tmp_path / "sides.py").write_text(
        "from functools import lru_cache, partial\n"
        "from ._parallel import check_shard\n"
        "from .quotients import q\n"
        "_memo = lru_cache(maxsize=4)(q)\n"
        "def lhs(ctx): return _memo(ctx)\n"
        "def rhs(ctx): return _memo(ctx) + 1\n"
        "_batch = partial(check_shard, lhs, rhs)\n")
    (tmp_path / "quotients.py").write_text("def q(ctx): return ctx\n")
    edges, batches = package_graph(tmp_path)
    assert batches == {"sides._batch": ("sides.lhs", "sides.rhs")}
    found = shared(edges, "sides.lhs", "sides.rhs")
    assert found == {"sides._memo": (["sides.lhs", "sides._memo"], ["sides.rhs", "sides._memo"]),
                     "quotients.q": (["sides.lhs", "sides._memo", "quotients.q"],
                                     ["sides.rhs", "sides._memo", "quotients.q"])}
