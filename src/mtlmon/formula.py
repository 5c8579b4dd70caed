"""Specification language: parsing, compilation, horizon and history bounds.

Surface syntax (whitespace-insensitive; precedence low to high: ``->``
right-associative, ``or``, ``and``, binary temporal, unary)::

    formula  := implies
    implies  := or ( "->" implies )?
    or       := and ( ("or" | "\\/") and )*
    and      := binary ( ("and" | "/\\") binary )*
    binary   := unary ( ("U"|"until") interval unary
                      | ("S"|"since") interval unary )?
    unary    := ("not"|"!") unary
              | ("eventually"|"<>") interval unary
              | ("always"|"[]") interval unary
              | ("once"|"<*>") interval unary
              | ("historically"|"[*]") interval unary
              | "next" unary | "prev" unary | primary
    primary  := identifier | "true" | "false" | "(" formula ")"
    interval := "[" nat "," ( nat "]" | "inf" ")" )

Interval bounds count samples.  Future-looking operators (until,
eventually, always, next) must carry finite upper bounds; the since
family may be unbounded.

Everything compiles down to a core of {true, atom, not, or, until,
since} before monitoring.  Each of the twelve operators has one entry in
``_OPS``, which the tokenizer, the parser, the printer and the compiler
all read: its spellings, its binding level (the grammar's precedence, 0
for ``->`` to 4 for a prefix operator), its core kind (until, since, or
none for a connective) and its shape.  A temporal operator's shape is one
of four rewrites, written for the future operator and mirrored for the
past one via since:

* until:      ``p until[I] q`` is a core node (mirror: since),
* next:       ``next p == true until[1,1] p`` (mirror: prev),
* eventually: ``eventually[I] p == true until[I] p`` (mirror: once),
* always:     ``always[I] p == not eventually[I] not p`` (mirror:
  historically).

A connective's shape is its own name.  The connectives and ``false``
rewrite the usual way: ``p and q == not (not p or not q)``, ``p -> q ==
not p or q`` and ``false == not true``.  A ``[0,0]`` window reads only
its trigger at the current step, so ``p until[0,0] q == q`` and ``p
since[0,0] q == q``: no compiled node has an interval with upper bound
0, whichever of the six windowed operators was written.
Double negations are dropped and structurally identical subterms are
shared, so the compiled node array is a DAG of unique subformulas.

A Formula derives, for each core node, how many future samples (horizon)
and past samples (history) its value at the current step depends on, and
the names of its atoms, from the nodes alone; it checks every node once
when it is built, so a hand-built formula cannot claim a reach its nodes
do not have.  The monitor sizes its storage from the root's bounds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import NamedTuple

TRUE = "true"
ATOM = "atom"
NOT = "not"
OR = "or"
UNTIL = "until"
SINCE = "since"


class _Op(NamedTuple):
    """Table entry of a surface operator, keyed by the name the parser
    gives its node.

    A future temporal operator compiles to until and needs a bounded
    interval; its past mirror compiles to since and may be unbounded.
    """

    spellings: tuple[str, ...]  # the first is the one the printer writes
    level: int  # binds tighter the higher: 0 "->", 1 or, 2 and, 3 binary temporal, 4 prefix
    kind: str | None  # UNTIL or SINCE; None for a connective
    shape: str  # "until", "next", "eventually" or "always"; a connective's name


_OPS = {
    "implies": _Op(("->",), 0, None, "implies"),
    "or": _Op(("or", "\\/"), 1, None, "or"),
    "and": _Op(("and", "/\\"), 2, None, "and"),
    "until": _Op(("until", "U"), 3, UNTIL, "until"),
    "since": _Op(("since", "S"), 3, SINCE, "until"),
    "not": _Op(("not", "!"), 4, None, "not"),
    "next": _Op(("next",), 4, UNTIL, "next"),
    "prev": _Op(("prev",), 4, SINCE, "next"),
    "eventually": _Op(("eventually", "<>"), 4, UNTIL, "eventually"),
    "once": _Op(("once", "<*>"), 4, SINCE, "eventually"),
    "always": _Op(("always", "[]"), 4, UNTIL, "always"),
    "historically": _Op(("historically", "[*]"), 4, SINCE, "always"),
}
# the operators that take an interval: every temporal one but next and prev
_WINDOWED = {name for name, op in _OPS.items() if op.kind is not None and op.shape != "next"}
# each node's type of name: only an atom has one
_NAME_TYPE = {"atom": str, "true": type(None), "false": type(None), **dict.fromkeys(_OPS, type(None))}
# per binding level: each spelling's operator name
_SPELLINGS = [{s: name for name, op in _OPS.items() if op.level == level for s in op.spellings} for level in range(5)]
# the printed spellings that are words; "U" and "S" remain atom names
_RESERVED = {"true", "false", "inf", *(op.spellings[0] for op in _OPS.values() if op.spellings[0].isidentifier())}


class ParseError(ValueError):
    """Syntax error in specification text, with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Interval:
    """Sample-count window [lower, upper]; upper may be +inf (since only)."""

    lower: int
    upper: int | float

    def __post_init__(self) -> None:
        if not _natural(self.lower):
            raise ValueError(f"interval lower bound must be a natural number, got {self.lower!r}")
        if self.upper != math.inf and not _natural(self.upper):
            raise ValueError(f"interval upper bound must be a natural number or inf, got {self.upper!r}")
        if self.lower > self.upper:
            raise ValueError(f"empty interval [{self.lower},{self.upper}]")

    def __str__(self) -> str:
        if self.upper == math.inf:
            return f"[{self.lower},inf)"
        return f"[{self.lower},{self.upper}]"


def _natural(bound: object) -> bool:
    return isinstance(bound, int) and not isinstance(bound, bool) and bound >= 0


@dataclass(frozen=True)
class SurfaceNode:
    """Node of the parsed syntax tree, before compilation to the core.

    op is "atom", "true", "false" or an operator's name, a str.  Only an
    atom has a name, a str.  children is a tuple: an operator takes two
    SurfaceNode children at binding levels 0 to 3 and one at level 4, and
    an Interval exactly when it is windowed, bounded for a future one.  A
    node that breaks this raises ValueError.
    """

    op: str
    children: tuple["SurfaceNode", ...] = ()
    interval: Interval | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        # a leaf is built in the parser's deepest frame, where a comparison
        # or a call (but type()) would count as one more level against the
        # recursion limit and cut the deepest nesting that parses: a leaf's
        # checks are dict lookups, truth tests and identities only
        if type(self.op) is not str:
            raise ValueError(f"op must be a str, got {self.op!r}")
        if type(self.children) is not tuple:
            raise ValueError(f"children of {self.op!r} must be a tuple, got {self.children!r}")
        if self.op not in _NAME_TYPE:
            raise ValueError(f"unknown operator {self.op!r}")
        if type(self.name) is not _NAME_TYPE[self.op]:
            raise ValueError(f"{self.op!r} takes {'a str' if self.op == ATOM else 'no'} name, got {self.name!r}")
        if self.op not in _OPS:
            if self.children or self.interval is not None:
                raise ValueError(f"{self.op!r} takes no operands and no interval")
        elif len(self.children) != (1 if _OPS[self.op].level == 4 else 2):
            raise ValueError(f"wrong number of operands for {self.op!r}: {len(self.children)}")
        elif type(self.children[0]) is not SurfaceNode or type(self.children[-1]) is not SurfaceNode:
            raise ValueError(f"operands of {self.op!r} must be SurfaceNodes, got {self.children!r}")
        elif (self.op in _WINDOWED) != (self.interval is not None):
            raise ValueError(f"{self.op!r} takes {'an' if self.op in _WINDOWED else 'no'} interval, got {self.interval}")
        elif self.interval is not None and type(self.interval) is not Interval:
            raise ValueError(f"interval of {self.op!r} must be an Interval, got {self.interval!r}")
        elif _OPS[self.op].kind == UNTIL and self.interval is not None and self.interval.upper == math.inf:
            raise ValueError(f"unbounded future interval on {self.op!r}")


@dataclass(frozen=True)
class CoreNode:
    """Compiled node: a core kind, its operands, interval and atom name.

    Operand indices point into the owning Formula's node array and are
    strictly greater than the node's own index (the root sits at 0), so a
    single descending sweep visits operands before the formulas that use
    them.  The node is checked, and its horizon and history derived, by
    the Formula that holds it.
    """

    kind: str
    left: int = -1
    right: int = -1
    interval: Interval | None = None
    name: str | None = None


# each core kind's operand count: left is used from one on, right at two
_ARITY = {TRUE: 0, ATOM: 0, NOT: 1, OR: 2, UNTIL: 2, SINCE: 2}


@dataclass(frozen=True)
class Formula:
    """Compiled specification: core nodes with the root at index 0.

    nodes must be a non-empty tuple of CoreNode, or TypeError is raised.
    Each node k must follow the rule that desugar's output follows, or
    ValueError names nodes[k] and the field: kind is one of the six core
    kinds; an operand index the kind uses (left for not, both for or,
    until and since) is an int in (k, len(nodes)), one it does not use -1;
    interval is, for until and since, an Interval with upper bound at
    least 1, finite for until, and None for the other kinds; name is a str
    for an atom and None otherwise.  Orphan and duplicate nodes are legal.

    Derived when built, never passed in: bounds[k], node k's (horizon,
    history), and atom_names, the names of every atom node, read or not.
    """

    nodes: tuple[CoreNode, ...]
    bounds: tuple[tuple[int, int], ...] = field(init=False, compare=False)
    atom_names: frozenset[str] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        nodes = self.nodes
        if type(nodes) is not tuple or not nodes or any(type(node) is not CoreNode for node in nodes):
            raise TypeError(f"nodes must be a non-empty tuple of CoreNode, got {nodes!r}")
        bounds = {-1: (0, 0)}  # an operand a node does not use reaches nowhere
        for k in range(len(nodes) - 1, -1, -1):  # operands before their users
            node = nodes[k]
            if fault := _fault(k, node, len(nodes)):
                raise ValueError(f"nodes[{k}].{fault[0]} must be {fault[1]}, got {getattr(node, fault[0])!r}")
            bounds[k] = _node_bounds(node.kind, node.interval, bounds[node.left], bounds[node.right])
        object.__setattr__(self, "bounds", tuple(bounds[k] for k in range(len(nodes))))
        object.__setattr__(self, "atom_names", frozenset(node.name for node in nodes if node.kind == ATOM))

    @property
    def horizon(self) -> int:
        """Future samples the root's value needs (prediction length)."""
        return self.bounds[0][0]

    @property
    def core_history(self) -> int:
        """Past samples the root's value needs, before the monitor widens it."""
        return self.bounds[0][1]

    @property
    def history(self) -> int:
        """Stored history: the root's history widened by its horizon.

        Every row k then keeps cells left of -horizon(k), which read only
        actual samples, and an unbounded since restarts its recurrence from
        there each step, so its running value never includes a prediction.
        """
        return self.horizon + self.core_history


def _fault(k: int, node: CoreNode, count: int) -> tuple[str, str] | None:
    """The first field of nodes[k], in a tuple of count nodes, that breaks
    Formula's rule, and what it must be instead; None if none does."""
    kind, iv = node.kind, node.interval
    if type(kind) is not str or kind not in _ARITY:
        return "kind", f"one of {', '.join(_ARITY)}"
    for name, used in (("left", _ARITY[kind] >= 1), ("right", _ARITY[kind] == 2)):
        m = getattr(node, name)
        if type(m) is not int or not (k < m < count if used else m == -1):
            return name, f"an int in ({k}, {count}) for {kind!r}" if used else f"-1 for {kind!r}"
    if kind not in (UNTIL, SINCE) and iv is not None:
        return "interval", f"None for {kind!r}"
    if kind in (UNTIL, SINCE) and (type(iv) is not Interval or iv.upper < 1 or (kind == UNTIL and iv.upper == math.inf)):
        return "interval", f"an Interval with {'finite ' if kind == UNTIL else ''}upper bound at least 1 for {kind!r}"
    if type(node.name) is not _NAME_TYPE[kind]:
        return "name", f"{'a str' if kind == ATOM else 'None'} for {kind!r}"


# ---------------------------------------------------------------------------
# Tokenizer / parser

# the spellings that are not words, longest first: none is cut short by one that begins it
_SYMBOLS = sorted((s for op in _OPS.values() for s in op.spellings if not s.isidentifier()), key=len, reverse=True)
_TOKEN_RE = re.compile(
    r"(?P<nat>[0-9]+)"  # ASCII digits only: \d would take any Unicode digit
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r"|[()\[\],])"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    n = len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.idx = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.idx]

    def take(self) -> tuple[str, str, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def at(self, *alts: str) -> bool:
        kind, text, _ = self.peek()
        return kind in ("sym", "ident") and text in alts

    def match(self, *alts: str) -> bool:
        if self.at(*alts):
            self.idx += 1
            return True
        return False

    def expect(self, token: str, what: str) -> None:
        if not self.match(token):
            _, text, pos = self.peek()
            raise ParseError(f"expected {what}, found {text or 'end of input'!r}", pos)

    def operator(self, level: int) -> str | None:
        """Take an operator of the given binding level; return its name."""
        names = _SPELLINGS[level]
        return names[self.take()[1]] if self.at(*names) else None

    def infix(self, level: int) -> SurfaceNode:
        """A formula whose operators bind at `level` (0 to 3) or tighter.
        One frame per level, so what parses is never too deep to compile."""
        node = self.infix(level + 1) if level < 3 else self.unary()
        while name := self.operator(level):
            if level == 0:  # "->" groups to the right
                return SurfaceNode(name, (node, self.infix(0)))
            if level == 3:  # a binary temporal operator takes an interval and does not chain
                iv = self.interval(name)
                return SurfaceNode(name, (node, self.unary()), iv)
            node = SurfaceNode(name, (node, self.infix(level + 1)))
        return node

    def unary(self) -> SurfaceNode:
        name = self.operator(4)
        if name is None:
            return self.primary()
        iv = self.interval(name) if name in _WINDOWED else None
        return SurfaceNode(name, (self.unary(),), iv)

    def primary(self) -> SurfaceNode:
        if self.match("("):
            node = self.infix(0)
            self.expect(")", "')'")
            return node
        if self.match("true"):
            return SurfaceNode("true")
        if self.match("false"):
            return SurfaceNode("false")
        kind, text, pos = self.peek()
        if kind == "ident" and text not in _RESERVED:
            self.take()
            return SurfaceNode("atom", name=text)
        raise ParseError(f"expected a formula, found {text or 'end of input'!r}", pos)

    def interval(self, op: str) -> Interval:
        _, _, open_pos = self.peek()
        self.expect("[", "'[' opening an interval")
        lower = self.nat()
        self.expect(",", "','")
        if self.at("inf"):
            _, _, pos = self.take()
            if _OPS[op].kind == UNTIL:
                raise ParseError(f"unbounded future interval on {op!r}", pos)
            self.expect(")", "')' closing an unbounded interval")
            return Interval(lower, math.inf)
        upper = self.nat()
        self.expect("]", "']' closing an interval")
        if lower > upper:
            raise ParseError(f"empty interval [{lower},{upper}]", open_pos)
        return Interval(lower, upper)

    def nat(self) -> int:
        kind, text, pos = self.peek()
        if kind != "nat":
            raise ParseError(f"expected a number, found {text or 'end of input'!r}", pos)
        self.take()
        return int(text)


def parse_formula(text: str) -> SurfaceNode:
    """Parse specification text into a surface syntax tree.  text that is
    not a str raises TypeError; a syntax error ParseError."""
    if not isinstance(text, str):
        raise TypeError(f"formula text must be a string, got {text!r}")
    parser = _Parser(_tokenize(text))
    try:
        tree = parser.infix(0)
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected token {tok!r}", pos)
    return tree


# ---------------------------------------------------------------------------
# Pretty printer (inverse of parse_formula up to tree equality)

def format_formula(tree: SurfaceNode) -> str:
    """Render a surface tree back to parseable text with minimal parens.  A
    tree that is not a SurfaceNode raises TypeError."""
    if not isinstance(tree, SurfaceNode):
        raise TypeError(f"tree must be a SurfaceNode, got {tree!r}")
    return _fmt(tree, 0)


def _fmt(node: SurfaceNode, need: int) -> str:
    """The node's text, in parentheses if it binds looser than level need."""
    if node.op in ("atom", "true", "false"):
        return node.name if node.op == "atom" else node.op
    spellings, level, _, _ = _OPS[node.op]
    head = f"{spellings[0]}{node.interval or ''}"
    # an operand must bind tighter than its operator, except on the side
    # the operator groups to (the right of "->" and of a prefix operator,
    # the left of or and and), where it may bind as loosely; a binary
    # temporal operator groups to neither side
    text = f"{head} {_fmt(node.children[-1], level if level in (0, 4) else level + 1)}"
    if len(node.children) == 2:
        text = f"{_fmt(node.children[0], level if level in (1, 2) else level + 1)} {text}"
    return f"({text})" if level < need else text


# ---------------------------------------------------------------------------
# Compilation to the core

def _node_bounds(kind, interval, left, right) -> tuple[int, int]:
    """Horizon/history of a node from its operands' (horizon, history)
    pairs, (0, 0) for an operand the kind does not use.

    An until's value at step i needs its trigger operand up to i+upper and
    its left operand up to i+upper-1.  Mirrored for a bounded since, which
    looks back `upper` samples.  Formula's rule puts upper >= 1 here, so
    neither bound is negative.  An unbounded since is evaluated by a
    running recurrence, so it only looks back far enough to anchor the
    recurrence: `lower` samples for the trigger and, because the recurrence
    also consumes the left operand at the current step, max(lower,1)-1 for
    the left operand.  Every other kind reaches as far as its operands.
    """
    (left_horizon, left_history), (right_horizon, right_history) = left, right
    if kind not in (UNTIL, SINCE):
        return max(left_horizon, right_horizon), max(left_history, right_history)
    lo, up = interval.lower, interval.upper
    if kind == UNTIL:
        horizon = max(left_horizon + int(up) - 1, right_horizon + int(up))
        return horizon, max(left_history, right_history)
    horizon = max(left_horizon, right_horizon)
    if up == math.inf:
        history = max(left_history + max(lo, 1) - 1, right_history + lo)
    else:
        history = max(left_history + int(up) - 1, right_history + int(up))
    return horizon, history


class _CoreBuilder:
    """Hash-consing bottom-up builder for the core node array."""

    def __init__(self):
        self.entries: list[CoreNode] = []  # children strictly before parents
        self.memo: dict[tuple, int] = {}

    def intern(self, kind, left=-1, right=-1, interval=None, name=None) -> int:
        key = (kind, left, right, interval, name)
        idx = self.memo.get(key)
        if idx is not None:
            return idx
        self.entries.append(CoreNode(kind, left, right, interval, name))
        idx = len(self.entries) - 1
        self.memo[key] = idx
        return idx

    def mk_true(self) -> int:
        return self.intern(TRUE)

    def mk_not(self, m: int) -> int:
        if self.entries[m].kind == NOT:
            return self.entries[m].left
        return self.intern(NOT, left=m)

    def mk_or(self, m: int, n: int) -> int:
        return self.intern(OR, left=m, right=n)

    def mk_and(self, m: int, n: int) -> int:
        return self.mk_not(self.mk_or(self.mk_not(m), self.mk_not(n)))

    def mk_window(self, kind: str, m: int, n: int, interval: Interval) -> int:
        """Until or since node; a [0,0] window reads only its trigger n."""
        if interval.upper == 0:
            return n
        return self.intern(kind, left=m, right=n, interval=interval)

    def lower(self, t: SurfaceNode) -> int:
        op = t.op
        if op == "atom":
            return self.intern(ATOM, name=t.name)
        if op == "true":
            return self.mk_true()
        if op == "false":
            return self.mk_not(self.mk_true())
        _, _, kind, shape = _OPS[op]
        if shape == "not":
            return self.mk_not(self.lower(t.children[0]))
        if shape == "or":
            return self.mk_or(self.lower(t.children[0]), self.lower(t.children[1]))
        if shape == "and":
            return self.mk_and(self.lower(t.children[0]), self.lower(t.children[1]))
        if shape == "implies":
            return self.mk_or(self.mk_not(self.lower(t.children[0])), self.lower(t.children[1]))
        if shape == "until":
            return self.mk_window(kind, self.lower(t.children[0]), self.lower(t.children[1]), t.interval)
        if shape == "always":
            inner = self.mk_window(kind, self.mk_true(), self.mk_not(self.lower(t.children[0])), t.interval)
            return self.mk_not(inner)
        interval = Interval(1, 1) if shape == "next" else t.interval
        return self.mk_window(kind, self.mk_true(), self.lower(t.children[0]), interval)


def desugar(tree: SurfaceNode) -> Formula:
    """Compile a surface tree into a core Formula.  A tree that
    is not a SurfaceNode raises TypeError."""
    if not isinstance(tree, SurfaceNode):
        raise TypeError(f"tree must be a SurfaceNode, got {tree!r}")
    builder = _CoreBuilder()
    try:
        root = builder.lower(tree)
    except RecursionError:  # only from a tree built by hand: parsing takes more frames per level
        raise ParseError("formula nested too deeply to compile", 0) from None
    # drop subterms orphaned by double-negation elimination: operands are
    # interned before their users, so one backward sweep from the root
    # finds every reachable node, in the new order (root first, operands at
    # strictly larger indices)
    live = {root}
    renumber = {-1: -1}
    kept = []
    for idx in range(root, -1, -1):
        if idx in live:
            node = builder.entries[idx]
            renumber[idx] = len(kept)
            kept.append(node)
            live.update((node.left, node.right))
    nodes = tuple(replace(node, left=renumber[node.left], right=renumber[node.right]) for node in kept)
    return Formula(nodes)


def compile_formula(text: str) -> Formula:
    """Parse and compile in one go."""
    return desugar(parse_formula(text))
