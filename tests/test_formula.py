import math
import random

import pytest

from mtlmon import Interval, ParseError, compile_formula, desugar, format_formula, parse_formula
from mtlmon.formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL, SurfaceNode

from helpers import random_surface_tree, surface_history, surface_horizon


def test_parse_single_atom():
    assert parse_formula("p") == SurfaceNode("atom", name="p")


def test_parse_until():
    tree = parse_formula("p U[0,5] q")
    assert tree == SurfaceNode(
        "until",
        (SurfaceNode("atom", name="p"), SurfaceNode("atom", name="q")),
        Interval(0, 5),
    )


def test_parse_worked_example_shape():
    tree = parse_formula("historically[0,inf) p and always[1,2] q")
    assert tree.op == "and"
    hist, alw = tree.children
    assert hist.op == "historically" and hist.interval == Interval(0, math.inf)
    assert alw.op == "always" and alw.interval == Interval(1, 2)


def test_parse_symbol_spellings():
    words = parse_formula("not (eventually[0,3] p or always[1,2] q) and once[0,inf) r")
    symbols = parse_formula("!(<>[0,3] p \\/ [][1,2] q) /\\ <*>[0,inf) r")
    assert words == symbols


def test_parse_implies_right_assoc():
    tree = parse_formula("a -> b -> c")
    assert tree.op == "implies"
    assert tree.children[1].op == "implies"


def test_parse_or_left_assoc():
    tree = parse_formula("a or b or c")
    assert tree.op == "or"
    assert tree.children[0].op == "or"


def test_parse_precedence_until_binds_tighter_than_and():
    tree = parse_formula("a U[0,1] b and c")
    assert tree.op == "and"
    assert tree.children[0].op == "until"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_formula("p and ")
    assert err.value.position == len("p and ")


def test_parse_rejects_unbounded_future():
    with pytest.raises(ParseError, match="unbounded future interval"):
        parse_formula("eventually[0,inf) p")
    with pytest.raises(ParseError, match="unbounded future interval"):
        parse_formula("p U[1,inf) q")


def test_parse_rejects_empty_interval():
    with pytest.raises(ParseError, match="empty interval"):
        parse_formula("eventually[5,2] p")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(ParseError, match="unexpected token"):
        parse_formula("p q")


@pytest.mark.parametrize("text", ["(" * 170 + "p" + ")" * 170, "not " * 990 + "p"], ids=["parens", "nots"])
def test_parse_rejects_formula_nested_too_deeply(text):
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_formula(text)


def test_desugar_rejects_tree_nested_too_deeply():
    tree = SurfaceNode("atom", name="p")
    for _ in range(5000):
        tree = SurfaceNode("next", (tree,))
    with pytest.raises(ParseError, match="nested too deeply"):
        desugar(tree)


def test_parse_rejects_reserved_atom():
    with pytest.raises(ParseError):
        parse_formula("not")


def test_interval_validation():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(3, 1)
    assert Interval(0, math.inf).upper_closed is False
    assert Interval(0, 4).upper_closed is True


def test_desugar_always():
    f = compile_formula("always[1,2] q")
    kinds = [n.kind for n in f.nodes]
    assert kinds == [NOT, UNTIL, NOT, ATOM, TRUE]
    until = f.nodes[1]
    assert until.interval == Interval(1, 2)
    assert f.nodes[until.left].kind == TRUE
    assert f.nodes[until.right].kind == NOT


def test_desugar_once_unbounded():
    f = compile_formula("once[0,inf) q")
    root = f.nodes[0]
    assert root.kind == SINCE
    assert root.interval == Interval(0, math.inf)
    assert f.nodes[root.left].kind == TRUE
    assert f.nodes[root.right].kind == ATOM


def test_desugar_next_prev():
    f = compile_formula("next p")
    assert f.nodes[0].kind == UNTIL and f.nodes[0].interval == Interval(1, 1)
    g = compile_formula("prev p")
    assert g.nodes[0].kind == SINCE and g.nodes[0].interval == Interval(1, 1)


@pytest.mark.parametrize(
    "text",
    ["p until[0,0] q", "p since[0,0] q", "eventually[0,0] q", "always[0,0] q", "once[0,0] q", "historically[0,0] q"],
)
def test_desugar_zero_window_to_its_trigger(text):
    assert compile_formula(text) == compile_formula("q")


def test_desugar_false():
    f = compile_formula("false")
    assert [n.kind for n in f.nodes] == [NOT, TRUE]


def test_worked_example_compiles_to_nine_nodes():
    f = compile_formula("historically[0,inf) p and always[1,2] q")
    assert len(f.nodes) == 9
    assert f.horizon == 2
    assert f.core_history == 0
    assert f.history == 2
    assert f.atom_names == {"p", "q"}


def test_horizon_examples():
    assert compile_formula("p U[0,5] q").horizon == 5
    assert compile_formula("p").horizon == 0
    assert compile_formula("historically[0,inf) p and always[1,2] q").horizon == 2


def test_history_examples():
    assert compile_formula("p S[2,inf) q").core_history == 2
    assert compile_formula("p U[0,5] q").core_history == 0
    assert compile_formula("historically[0,inf) p and always[1,2] q").core_history == 0


def test_shared_subterms_share_nodes():
    f = compile_formula("(p or q) and (p or q)")
    # one or-node, one p, one q plus the surrounding rewrite of `and`
    assert sum(n.kind == OR for n in f.nodes) >= 1
    assert sum(n.kind == ATOM for n in f.nodes) == 2


def test_bottom_up_index_property():
    rng = random.Random(13)
    for _ in range(200):
        f = desugar(random_surface_tree(rng))
        for k, node in enumerate(f.nodes):
            if node.left >= 0:
                assert node.left > k
            if node.right >= 0:
                assert node.right > k
        # every node reachable from the root
        seen = set()
        stack = [0]
        while stack:
            k = stack.pop()
            if k in seen:
                continue
            seen.add(k)
            node = f.nodes[k]
            stack.extend(i for i in (node.left, node.right) if i >= 0)
        assert seen == set(range(len(f.nodes)))


def test_roundtrip_parse_print_parse():
    rng = random.Random(17)
    for _ in range(250):
        tree = random_surface_tree(rng)
        assert parse_formula(format_formula(tree)) == tree


def test_bounds_agree_between_surface_and_core():
    rng = random.Random(19)
    for _ in range(250):
        tree = random_surface_tree(rng)
        f = desugar(tree)
        assert f.horizon == surface_horizon(tree)
        assert f.core_history == surface_history(tree)
        # no [0,0] window survives, so no node needs more history than the
        # root and every monitor row is written each step
        assert all(n.interval is None or n.interval.upper >= 1 for n in f.nodes)
        assert all(n.history <= f.core_history for n in f.nodes)
