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
    "fit_slope",
    "check_compression",
    "convergence_bound",
    "convergence_order_terms",
    "sqrt_horizon_schedule",
    # references the tests check against
    "deserialize",
    "reference_sgd",
    "validate_param",
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


def used_names(tree: ast.Module):
    """Every name the module reads, imports or looks up as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_has_a_caller_in_src():
    defined = {}
    uses = collections.Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in public_definitions(tree):
            if not name.startswith("_"):
                defined.setdefault(name, f"{path.name}:{line}")
        uses.update(used_names(tree))
    unused = {name: where for name, where in defined.items() if not uses[name]}
    new = sorted(f"{name} ({where})" for name, where in unused.items() if name not in ALLOWED)
    assert not new, f"public names no code in src/ uses: {new}; delete them or list them"
    stale = sorted(ALLOWED - unused.keys())
    assert not stale, f"allowlisted names that src/ now uses or no longer defines: {stale}"
