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
since} before monitoring.  Each temporal operator has one entry in
``_TEMPORAL``: its spellings, its core kind and its shape, which is one of
four rewrites, written for the future operator and mirrored for the past
one via since:

* until:      ``p until[I] q`` is a core node (mirror: since),
* next:       ``next p == true until[1,1] p`` (mirror: prev),
* eventually: ``eventually[I] p == true until[I] p`` (mirror: once),
* always:     ``always[I] p == not eventually[I] not p`` (mirror:
  historically).

The boolean ones rewrite the usual way: ``p and q == not (not p or not
q)``, ``p -> q == not p or q`` and ``false == not true``.  A
``[0,0]`` window reads only its trigger at the current step, so
``p until[0,0] q == q`` and ``p since[0,0] q == q``: no compiled node has
an interval with upper bound 0, whichever of the six windowed operators
was written.
Double negations are dropped and structurally identical subterms are
shared, so the compiled node array is a DAG of unique subformulas.

Each core node is annotated with how many future samples (horizon) and
past samples (history) its value at the current step depends on; the
monitor sizes its storage from the root's annotations.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from typing import NamedTuple

TRUE = "true"
ATOM = "atom"
NOT = "not"
OR = "or"
UNTIL = "until"
SINCE = "since"


class _Temporal(NamedTuple):
    """Table entry of a temporal surface operator.

    The parser, the printer and the compiler all read the entry.  The
    shape names the future member of the operator's mirror pair (the four
    rewrites in the module docstring).  The future operator compiles to
    until and needs a bounded interval; its past mirror compiles to since
    and may be unbounded.
    """

    symbols: tuple[str, ...]  # spellings besides the operator's name
    kind: str  # UNTIL or SINCE
    shape: str  # "until", "next", "eventually" or "always"


# keyed by the name the parser gives the node and the printer writes
_TEMPORAL = {
    "until": _Temporal(("U",), UNTIL, "until"),
    "since": _Temporal(("S",), SINCE, "until"),
    "next": _Temporal((), UNTIL, "next"),
    "prev": _Temporal((), SINCE, "next"),
    "eventually": _Temporal(("<>",), UNTIL, "eventually"),
    "once": _Temporal(("<*>",), SINCE, "eventually"),
    "always": _Temporal(("[]",), UNTIL, "always"),
    "historically": _Temporal(("[*]",), SINCE, "always"),
}
_SPELLINGS = {s: name for name, op in _TEMPORAL.items() for s in (name, *op.symbols)}
_RESERVED = {"true", "false", "not", "and", "or", "inf", *_TEMPORAL}


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
    """Node of the parsed syntax tree, before compilation to the core."""

    op: str
    children: tuple["SurfaceNode", ...] = ()
    interval: Interval | None = None
    name: str | None = None


@dataclass(frozen=True)
class CoreNode:
    """Compiled node: core operator plus horizon/history annotations.

    Operand indices point into the owning Formula's node array and are
    strictly greater than the node's own index (the root sits at 0), so a
    single descending sweep visits operands before the formulas that use
    them.
    """

    kind: str
    left: int = -1
    right: int = -1
    interval: Interval | None = None
    name: str | None = None
    horizon: int = 0
    history: int = 0


@dataclass(frozen=True)
class Formula:
    """Compiled specification: unique core nodes with the root at index 0."""

    nodes: tuple[CoreNode, ...]
    atom_names: frozenset[str]

    @property
    def horizon(self) -> int:
        """Future samples the root's value needs (prediction length)."""
        return self.nodes[0].horizon

    @property
    def core_history(self) -> int:
        """Past samples the root's value needs, before the monitor widens it."""
        return self.nodes[0].history

    @property
    def history(self) -> int:
        """Stored history: the root's history widened by its horizon.

        Every row k then keeps cells left of -horizon(k), which read only
        actual samples, and an unbounded since restarts its recurrence from
        there each step, so its running value never includes a prediction.
        """
        return self.nodes[0].horizon + self.nodes[0].history


# ---------------------------------------------------------------------------
# Tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<nat>[0-9]+)"  # ASCII digits only: \d would take any Unicode digit
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<sym><\*>|\[\*\]|<>|\[\]|->|\\/|/\\|[()\[\],!])"
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

    def implies(self) -> SurfaceNode:
        left = self.or_()
        if self.match("->"):
            return SurfaceNode("implies", (left, self.implies()))
        return left

    def or_(self) -> SurfaceNode:
        node = self.and_()
        while self.match("or", "\\/"):
            node = SurfaceNode("or", (node, self.and_()))
        return node

    def and_(self) -> SurfaceNode:
        node = self.binary()
        while self.match("and", "/\\"):
            node = SurfaceNode("and", (node, self.binary()))
        return node

    def temporal(self, binary: bool) -> str | None:
        """Take a temporal operator of the given arity; return its name."""
        name = _SPELLINGS.get(self.peek()[1])
        if name is None or (_TEMPORAL[name].shape == "until") != binary:
            return None
        self.idx += 1
        return name

    def binary(self) -> SurfaceNode:
        left = self.unary()
        name = self.temporal(binary=True)
        if name is None:
            return left
        iv = self.interval(name)
        return SurfaceNode(name, (left, self.unary()), iv)

    def unary(self) -> SurfaceNode:
        if self.match("not", "!"):
            return SurfaceNode("not", (self.unary(),))
        name = self.temporal(binary=False)
        if name is None:
            return self.primary()
        iv = None if _TEMPORAL[name].shape == "next" else self.interval(name)
        return SurfaceNode(name, (self.unary(),), iv)

    def primary(self) -> SurfaceNode:
        if self.match("("):
            node = self.implies()
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
            if _TEMPORAL[op].kind == UNTIL:
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
    """Parse specification text into a surface syntax tree."""
    parser = _Parser(_tokenize(text))
    try:
        tree = parser.implies()
    except RecursionError:
        raise ParseError("formula nested too deeply", parser.peek()[2]) from None
    kind, tok, pos = parser.peek()
    if kind != "eof":
        raise ParseError(f"unexpected token {tok!r}", pos)
    return tree


# ---------------------------------------------------------------------------
# Pretty printer (inverse of parse_formula up to tree equality)

_LEVEL = {"implies": 0, "or": 1, "and": 2, "not": 4, "atom": 5, "true": 5, "false": 5}
_LEVEL.update((name, 3 if op.shape == "until" else 4) for name, op in _TEMPORAL.items())


def format_formula(tree: SurfaceNode) -> str:
    """Render a surface tree back to parseable text with minimal parens."""
    return _fmt(tree, 0)


def _fmt(node: SurfaceNode, need: int) -> str:
    op = node.op
    if op == "atom":
        text = node.name
    elif op in ("true", "false"):
        text = op
    elif op == "not" or op in _TEMPORAL:  # prefix; until and since also take a left operand
        head = op if node.interval is None else f"{op}{node.interval}"
        text = f"{head} {_fmt(node.children[-1], 4)}"
        if len(node.children) == 2:
            text = f"{_fmt(node.children[0], 4)} {text}"
    elif op == "and":
        left, right = node.children
        text = f"{_fmt(left, 2)} and {_fmt(right, 3)}"
    elif op == "or":
        left, right = node.children
        text = f"{_fmt(left, 1)} or {_fmt(right, 2)}"
    elif op == "implies":
        left, right = node.children
        text = f"{_fmt(left, 1)} -> {_fmt(right, 0)}"
    else:
        raise ValueError(f"unknown operator {op!r}")
    if _LEVEL[op] < need:
        return f"({text})"
    return text


# ---------------------------------------------------------------------------
# Compilation to the core

def _node_bounds(kind, interval, left, right) -> tuple[int, int]:
    """Horizon/history of a node from its operands' annotations.

    An until's value at step i needs its trigger operand up to i+upper and
    its left operand up to i+upper-1.  Mirrored for a bounded since, which
    looks back `upper` samples.  A [0,0] window compiles to its trigger, so
    upper >= 1 here and neither bound is negative.  An unbounded since is
    evaluated by a running recurrence, so it only looks back far enough to
    anchor the recurrence: `lower` samples for the trigger and, because the
    recurrence also consumes the left operand at the current step,
    max(lower,1)-1 for the left operand.
    """
    if kind in (TRUE, ATOM):
        return 0, 0
    if kind == NOT:
        return left.horizon, left.history
    if kind == OR:
        return max(left.horizon, right.horizon), max(left.history, right.history)
    lo, up = interval.lower, interval.upper
    if kind == UNTIL:
        horizon = max(left.horizon + int(up) - 1, right.horizon + int(up))
        return horizon, max(left.history, right.history)
    horizon = max(left.horizon, right.horizon)
    if up == math.inf:
        history = max(left.history + max(lo, 1) - 1, right.history + lo)
    else:
        history = max(left.history + int(up) - 1, right.history + int(up))
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
        lnode = self.entries[left] if left >= 0 else None
        rnode = self.entries[right] if right >= 0 else None
        horizon, history = _node_bounds(kind, interval, lnode, rnode)
        self.entries.append(
            CoreNode(kind, left, right, interval, name, horizon, history)
        )
        idx = len(self.entries) - 1
        self.memo[key] = idx
        return idx

    def mk_true(self) -> int:
        return self.intern(TRUE)

    def mk_atom(self, name: str) -> int:
        return self.intern(ATOM, name=name)

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
            return self.mk_atom(t.name)
        if op == "true":
            return self.mk_true()
        if op == "false":
            return self.mk_not(self.mk_true())
        if op == "not":
            return self.mk_not(self.lower(t.children[0]))
        if op == "or":
            return self.mk_or(self.lower(t.children[0]), self.lower(t.children[1]))
        if op == "and":
            return self.mk_and(self.lower(t.children[0]), self.lower(t.children[1]))
        if op == "implies":
            return self.mk_or(self.mk_not(self.lower(t.children[0])), self.lower(t.children[1]))
        if op not in _TEMPORAL:
            raise ValueError(f"unknown operator {op!r}")
        _, kind, shape = _TEMPORAL[op]
        if shape == "until":
            return self.mk_window(kind, self.lower(t.children[0]), self.lower(t.children[1]), t.interval)
        if shape == "always":
            inner = self.mk_window(kind, self.mk_true(), self.mk_not(self.lower(t.children[0])), t.interval)
            return self.mk_not(inner)
        interval = Interval(1, 1) if shape == "next" else t.interval
        return self.mk_window(kind, self.mk_true(), self.lower(t.children[0]), interval)


def desugar(tree: SurfaceNode) -> Formula:
    """Compile a surface tree into an annotated core Formula."""
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
    return Formula(nodes, frozenset(node.name for node in nodes if node.kind == ATOM))


def compile_formula(text: str) -> Formula:
    """Parse and compile in one go."""
    return desugar(parse_formula(text))
