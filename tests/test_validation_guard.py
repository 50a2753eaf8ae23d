"""Only untrusted input is validated.

Tables built inside the package are groups by construction, so the only
caller of ``validate_table`` is the ``mul_table`` branch of
``groups.group_from_definition``.  Likewise ``quotient`` trusts that its
kernel is normal, so its only caller is ``GroupVerifier.quot``, which
passes lattice members and central subgroups.  The source is read with
``ast``, never imported, so a call on a branch no test reaches is found
too.  Rows are split into blocks by one function, ``perms.row_blocks``,
whose callers name their own cell budgets.  In the same way commuting
pairs are counted only by ``structure.commuting_counts``, and the cosets
of a normal subgroup are labelled only by ``structure.coset_labels``.
Commutator arrays, ``structure.commutators``, are gathered only by the DP
in ``exact``: the structure layer grows every subgroup from generators.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nilprob"


def scopes(accept, modules=None):
    """``(module, enclosing function)`` for every node that ``accept`` takes, in ``modules``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if modules is not None and path.stem not in modules:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "<module>")]
        while stack:
            node, scope = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if accept(node):
                found.append((path.stem, scope))
            stack.extend((child, scope) for child in ast.iter_child_nodes(node))
    return sorted(found)


def references(name):
    """``(module, enclosing function)`` for every use of ``name`` in the package.

    A use is a load of the name or attribute, or an import of it, so an
    alias such as ``check = validate_table`` is found as well as a call.
    """
    return scopes(lambda node: (
        (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.alias) and node.name == name)
    ))


def test_only_group_from_definition_validates():
    assert references("validate_table") == [
        ("__init__", "<module>"),  # the re-export
        ("groups", "group_from_definition"),
    ]


def test_only_the_verifier_takes_quotients():
    assert references("quotient") == [
        ("__init__", "<module>"),  # the re-export
        ("verify", "<module>"),  # the import
        ("verify", "quot"),
    ]


def test_row_blocks_is_defined_once():
    defined = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name == "row_blocks":
                defined.append(path.stem)
    assert defined == ["perms"]


def test_commuting_pairs_are_counted_in_one_place():
    assert references("commuting_counts") == [
        ("exact", "<module>"),  # the import
        ("exact", "_backward_counts"),
        ("exact", "_forward_count"),
        ("structure", "center"),
    ]


def test_cosets_of_a_normal_subgroup_are_labelled_in_one_place():
    assert references("coset_labels") == [
        ("structure", "normal_subgroups"),
        ("structure", "quotient"),
    ]


def test_only_the_dp_gathers_commutators():
    assert {module for module, _ in references("commutators")} == {"exact"}


def test_no_table_is_compared_with_its_transpose_elsewhere():
    # a comparison against ``x.T`` is a commuting test; only commuting_counts
    # makes one, a block of rows at a time
    def against_transpose(node):
        return isinstance(node, ast.Compare) and any(
            isinstance(side, ast.Attribute) and side.attr == "T"
            for side in [node.left, *node.comparators])

    assert scopes(against_transpose, {"structure", "exact"}) == [
        ("structure", "commuting_counts")]
