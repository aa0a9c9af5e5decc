"""Every public function, class and method under ``src/`` has a caller there.

A public name that no other code in the package uses is API that only tests
(or nothing) call.  Such a name must be listed below with the reason it
stays, so test-only twins of the real code paths cannot pile up unnoticed.
"""

import ast
import collections
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sparsecomm"

# Public names with no caller in src/, each kept on purpose.
ALLOWED = {
    # wrapped by name in bench/tracing.py, which fails to install without them
    "rank_sparse",
    "subsample",
    "subsample_mask",
    "top_r",
    "random_k",
    "rtop_k",
    "to_dense",
    "sgd_round",  # also the one round whose trace c6 reads
    # acceptance checks of the paper's claims (c2, c3/c4, c5, c7)
    "monte_carlo_mean",
    "check_compression",
    "convergence_bound",
    "convergence_order_terms",
    "sqrt_horizon_schedule",
    # references the tests check against
    "deserialize",
    "reference_sgd",
    "nnz",  # SparseUpdate's size, read beside to_dense
}


def public_definitions(tree: ast.Module):
    """(name, line) of each top-level def/class and each method of a
    top-level class, private and dunder names included."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def used_names(tree: ast.AST, local: frozenset = frozenset()):
    """Every name the module reads, imports or looks up as an attribute,
    except a name that a parameter or assignment of an enclosing function
    binds: such a name is that function's local variable, not a use of the
    public name it shadows."""
    if isinstance(tree, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | bound_names(tree)
    if isinstance(tree, ast.Name) and tree.id not in local:
        yield tree.id
    elif isinstance(tree, ast.Attribute):
        yield tree.attr
    elif isinstance(tree, ast.alias):
        yield tree.name
    for child in ast.iter_child_nodes(tree):
        yield from used_names(child, local)


def bound_names(func) -> frozenset:
    """The names a function's parameters and assignments bind; those of
    the functions and classes nested in it are theirs, not its own."""
    args = func.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    names = {param.arg for param in params if param is not None}
    todo = list(func.body) if isinstance(func.body, list) else [func.body]  # a lambda's body
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return frozenset(names)


def unused_public_names(sources: dict[str, str]) -> dict[str, str]:
    """Each public name defined in ``sources`` (file name to text) that no
    source uses, with the file and line defining it."""
    defined = {}
    uses = collections.Counter()
    for name, text in sources.items():
        tree = ast.parse(text, filename=name)
        for public, line in public_definitions(tree):
            if not public.startswith("_"):
                defined.setdefault(public, f"{name}:{line}")
        uses.update(used_names(tree))
    return {name: where for name, where in defined.items() if not uses[name]}


def test_every_public_name_has_a_caller_in_src():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    unused = unused_public_names(sources)
    new = sorted(f"{name} ({where})" for name, where in unused.items() if name not in ALLOWED)
    assert not new, f"public names no code in src/ uses: {new}; delete them or list them"
    stale = sorted(ALLOWED - unused.keys())
    assert not stale, f"allowlisted names that src/ now uses or no longer defines: {stale}"


def test_a_local_variable_is_not_a_use():
    source = (
        "def estimate(x):\n"
        "    return x\n"
        "\n"
        "def run(rows):\n"
        "    estimate = sum(rows)\n"
        "    return [estimate for _ in rows]\n"
        "\n"
        "def mean(rows):\n"
        "    return run(rows)\n"
    )
    assert unused_public_names({"m.py": source}) == {"estimate": "m.py:1", "mean": "m.py:8"}
