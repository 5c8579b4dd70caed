import math
import random
from dataclasses import replace

import pytest

from mtlmon import Interval, ParseError, compile_formula, desugar, format_formula, parse_formula
from mtlmon.formula import ATOM, NOT, OR, SINCE, TRUE, UNTIL, SurfaceNode

from helpers import has_unbounded, mirror, random_surface_tree, surface_history, surface_horizon


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
    # every operator, in one formula per spelling
    words = (
        "not (eventually[0,1] p or always[0,1] p) and once[0,inf) p"
        " -> historically[0,1] p and (p until[0,1] p) and (p since[0,1] p)"
    )
    symbols = "!(<>[0,1] p \\/ [][0,1] p) /\\ <*>[0,inf) p -> [*][0,1] p /\\ (p U[0,1] p) /\\ (p S[0,1] p)"
    assert parse_formula(words) == parse_formula(symbols)
    # the past operators accept an unbounded interval in either spelling
    for word, symbol, text in [
        ("since", "S", "p {}[2,inf) q"),
        ("once", "<*>", "{}[2,inf) q"),
        ("historically", "[*]", "{}[2,inf) q"),
    ]:
        tree = parse_formula(text.format(word))
        assert tree.op == word and tree.interval == Interval(2, math.inf)
        assert parse_formula(text.format(symbol)) == tree


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


@pytest.mark.parametrize(
    "text, name",
    [
        ("p until[1,inf) q", "until"),
        ("p U[1,inf) q", "until"),
        ("eventually[0,inf) p", "eventually"),
        ("<>[0,inf) p", "eventually"),
        ("always[2,inf) p", "always"),
        ("[][2,inf) p", "always"),
    ],
    ids=["until", "U", "eventually", "<>", "always", "[]"],
)
def test_parse_rejects_unbounded_future(text, name):
    with pytest.raises(ParseError, match=f"unbounded future interval on '{name}'"):
        parse_formula(text)


def test_parse_rejects_empty_interval():
    with pytest.raises(ParseError, match="empty interval"):
        parse_formula("eventually[5,2] p")


def test_parse_rejects_non_ascii_digits_in_interval():
    # int() reads the full-width one, but an interval bound is an ASCII numeral
    with pytest.raises(ParseError, match="unexpected character '\uff11'") as err:
        parse_formula("eventually[0,\uff11] p")
    assert err.value.position == len("eventually[0,")


@pytest.mark.parametrize("call", [parse_formula, compile_formula])
def test_formula_text_must_be_a_string(call):
    with pytest.raises(TypeError, match="^formula text must be a string, got 123$"):
        call(123)


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


P = SurfaceNode("atom", name="p")
UNBOUNDED = Interval(0, math.inf)


@pytest.mark.parametrize(
    "op, children, interval, name, message",
    [
        ("xor", (P, P), None, None, "unknown operator 'xor'"),
        ("or", (P,), None, None, "wrong number of operands for 'or': 1"),
        ("not", (P, P), None, None, "wrong number of operands for 'not': 2"),
        ("until", (P,), Interval(0, 1), None, "wrong number of operands for 'until': 1"),
        ("atom", (P,), None, "q", "'atom' takes no operands and no interval"),
        ("true", (), Interval(0, 1), None, "'true' takes no operands and no interval"),
        ("next", (P,), Interval(0, 3), None, "'next' takes no interval, got [0,3]"),
        ("prev", (P,), Interval(0, 3), None, "'prev' takes no interval, got [0,3]"),
        ("and", (P, P), Interval(0, 1), None, "'and' takes no interval, got [0,1]"),
        ("until", (P, P), None, None, "'until' takes an interval, got None"),
        ("once", (P,), None, None, "'once' takes an interval, got None"),
        ("eventually", (P,), UNBOUNDED, None, "unbounded future interval on 'eventually'"),
        ("until", (P, P), UNBOUNDED, None, "unbounded future interval on 'until'"),
        ("always", (P,), UNBOUNDED, None, "unbounded future interval on 'always'"),
        ("atom", (), None, None, "'atom' takes a str name, got None"),
        ("atom", (), None, 3, "'atom' takes a str name, got 3"),
        ("false", (), None, "p", "'false' takes no name, got 'p'"),
        ("not", (P,), None, "p", "'not' takes no name, got 'p'"),
        ("not", ("p",), None, None, "operands of 'not' must be SurfaceNodes, got ('p',)"),
        ("or", (P, "q"), None, None, "operands of 'or' must be SurfaceNodes, got (" + repr(P) + ", 'q')"),
        ("until", (None, P), Interval(0, 1), None, "operands of 'until' must be SurfaceNodes, got (None, " + repr(P) + ")"),
        ("once", (P,), (0, 3), None, "interval of 'once' must be an Interval, got (0, 3)"),
        ("eventually", (P,), (0, 3), None, "interval of 'eventually' must be an Interval, got (0, 3)"),
        ([], (), None, None, "op must be a str, got []"),
        ({}, (), None, None, "op must be a str, got {}"),
        ("not", 5, None, None, "children of 'not' must be a tuple, got 5"),
        ("until", {P: 1, "x": 2}, Interval(0, 3), None, "children of 'until' must be a tuple, got {" + repr(P) + ": 1, 'x': 2}"),
        ("not", [P], None, None, "children of 'not' must be a tuple, got [" + repr(P) + "]"),
    ],
    ids=[
        "unknown", "or-1", "not-2", "until-1", "atom-operand", "true-interval", "next-interval",
        "prev-interval", "and-interval", "until-bare", "once-bare", "eventually-inf", "until-inf",
        "always-inf", "atom-unnamed", "atom-int-name", "false-named", "not-named",
        "not-str-operand", "or-str-operand", "until-none-operand", "once-tuple-interval", "eventually-tuple-interval",
        "list-op", "dict-op", "not-int-children", "until-dict-children", "not-list-children",
    ],
)
def test_surface_node_checks_itself_against_the_operator_table(op, children, interval, name, message):
    """A hand-built tree that no text parses to is refused when built,
    not dropped in part by desugar or printed as text that does not parse."""
    with pytest.raises(ValueError) as err:
        SurfaceNode(op, children, interval, name)
    assert str(err.value) == message


def test_surface_node_accepts_what_parses():
    assert SurfaceNode("since", (P, P), UNBOUNDED) == parse_formula("p since[0,inf) p")
    assert SurfaceNode("historically", (P,), UNBOUNDED) == parse_formula("[*][0,inf) p")
    assert SurfaceNode("next", (P,)) == parse_formula("next p")
    # dataclasses.replace builds a new node, which is checked too
    with pytest.raises(ValueError, match="unbounded future interval on 'until'"):
        replace(parse_formula("p S[0,inf) p"), op="until")


def test_parse_rejects_reserved_atom():
    with pytest.raises(ParseError):
        parse_formula("not")


def test_interval_validation():
    with pytest.raises(ValueError, match="empty interval"):
        Interval(3, 1)
    with pytest.raises(ValueError, match="lower bound must be a natural number, got True"):
        Interval(True, 2)
    with pytest.raises(ValueError, match="upper bound must be a natural number or inf, got True"):
        Interval(0, True)


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


def test_time_mirror_swaps_until_and_since_and_horizon_and_history():
    rng = random.Random(23)
    trees = [t for t in (random_surface_tree(rng) for _ in range(600)) if not has_unbounded(t)]
    assert len(trees) >= 200
    swap = {UNTIL: SINCE, SINCE: UNTIL}
    for tree in trees:
        f = desugar(tree)
        mirrored = desugar(mirror(tree))
        assert mirrored.nodes == tuple(replace(n, kind=swap.get(n.kind, n.kind)) for n in f.nodes)
        assert mirrored.bounds == tuple((history, horizon) for horizon, history in f.bounds)
        assert mirrored.atom_names == f.atom_names


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
        assert all(history <= f.core_history for _, history in f.bounds)
