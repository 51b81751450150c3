"""Left-replication form grammar: AB -> AAB, generation and recognition.

A form tree is either a Leaf (one uppercase letter) or a Node with at
least two ordered children. The core rewrite duplicates a node's first
child in place; the mirrored rule (last child appended) exists only so
the asymmetry of the two languages can be checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, Optional, Tuple, Union

from .errors import GrammarError

__all__ = [
    "Leaf",
    "Node",
    "FormTree",
    "Derivation",
    "SonataAlignment",
    "parse_form",
    "parse_tree",
    "tree_to_str",
    "flatten",
    "node_paths",
    "left_replicate",
    "right_replicate",
    "generate",
    "derivations",
    "recognize",
    "recognize_tree",
    "replay",
    "predicted_climax_position",
    "sentence_check",
    "sonata_alignment",
    "time_reverse",
    "MAX_DERIVATION_STEPS",
]

MAX_DERIVATION_STEPS = 32


@dataclass(frozen=True)
class Leaf:
    label: str

    def __post_init__(self):
        if len(self.label) != 1 or not self.label.isupper():
            raise GrammarError(f"leaf label must be one uppercase letter, "
                               f"got {self.label!r}")


@dataclass(frozen=True)
class Node:
    children: Tuple["FormTree", ...]

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise GrammarError("node needs at least two children")


FormTree = Union[Leaf, Node]
Path = Tuple[int, ...]


@dataclass(frozen=True)
class Derivation:
    seed: FormTree
    steps: Tuple[Path, ...]
    result: FormTree


def parse_form(form: str) -> FormTree:
    """Flat string like "AAB" to a tree (single letter becomes a Leaf)."""
    if not form:
        raise GrammarError("empty form")
    if not form.isalpha() or not form.isupper():
        raise GrammarError(f"form must be uppercase letters, got {form!r}")
    if len(form) == 1:
        return Leaf(form)
    return Node(tuple(Leaf(c) for c in form))


def parse_tree(text: str) -> FormTree:
    """Parse the nested-parentheses serialization, e.g. "((A A B) A)"."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def parse(pos: int) -> Tuple[FormTree, int]:
        if pos >= len(tokens):
            raise GrammarError("unexpected end of tree text")
        tok = tokens[pos]
        if tok == "(":
            children = []
            pos += 1
            while pos < len(tokens) and tokens[pos] != ")":
                child, pos = parse(pos)
                children.append(child)
            if pos >= len(tokens):
                raise GrammarError("unbalanced parentheses")
            return Node(tuple(children)), pos + 1
        if tok == ")":
            raise GrammarError("unexpected ')'")
        return Leaf(tok), pos + 1

    tree, pos = parse(0)
    if pos != len(tokens):
        raise GrammarError("trailing tokens after tree")
    return tree


def tree_to_str(tree: FormTree) -> str:
    if isinstance(tree, Leaf):
        return tree.label
    return "(" + " ".join(tree_to_str(c) for c in tree.children) + ")"


def flatten(tree: FormTree) -> str:
    if isinstance(tree, Leaf):
        return tree.label
    return "".join(flatten(c) for c in tree.children)


def node_paths(tree: FormTree, prefix: Path = ()) -> Iterator[Path]:
    """Paths of every Node in the tree, root first."""
    if isinstance(tree, Node):
        yield prefix
        for i, child in enumerate(tree.children):
            yield from node_paths(child, prefix + (i,))


def _subtree(tree: FormTree, path: Path) -> FormTree:
    for i in path:
        if isinstance(tree, Leaf) or not 0 <= i < len(tree.children):
            raise GrammarError(f"path {path} out of range")
        tree = tree.children[i]
    return tree


def _rebuild(tree: FormTree, path: Path, replacement: FormTree) -> FormTree:
    if not path:
        return replacement
    if isinstance(tree, Leaf):
        raise GrammarError(f"path {path} descends into a leaf")
    i = path[0]
    if not 0 <= i < len(tree.children):
        raise GrammarError(f"path {path} out of range")
    children = list(tree.children)
    children[i] = _rebuild(children[i], path[1:], replacement)
    return Node(tuple(children))


def left_replicate(tree: FormTree, path: Path = (), child: int = 0) -> FormTree:
    """Duplicate the addressed node's child in place (default: the first).

    The default child=0 is the canonical rule AB -> AAB; other indices
    are a generalization kept out of the core language results.
    """
    target = _subtree(tree, path)
    if isinstance(target, Leaf):
        raise GrammarError("cannot replicate inside a leaf")
    if not 0 <= child < len(target.children):
        raise GrammarError(f"child index {child} out of range")
    children = (target.children[:child + 1]
                + (target.children[child],)
                + target.children[child + 1:])
    return _rebuild(tree, path, Node(children))


def right_replicate(tree: FormTree, path: Path = ()) -> FormTree:
    """Mirror rule: append a copy of the last child (AB -> ABB)."""
    target = _subtree(tree, path)
    if isinstance(target, Leaf):
        raise GrammarError("cannot replicate inside a leaf")
    return _rebuild(tree, path,
                    Node(target.children + (target.children[-1],)))


def _successors(tree: FormTree, rule=left_replicate) -> Iterator[Tuple[Path, FormTree]]:
    for path in node_paths(tree):
        yield path, rule(tree, path)


def generate(seed: FormTree, max_steps: int,
             rule=left_replicate) -> FrozenSet[FormTree]:
    """All trees reachable from the seed in at most max_steps rewrites."""
    if max_steps < 0:
        raise GrammarError("max_steps must be nonnegative")
    seen = {seed}
    frontier = [seed]
    for _ in range(max_steps):
        nxt = []
        for tree in frontier:
            for _, successor in _successors(tree, rule):
                if successor not in seen:
                    seen.add(successor)
                    nxt.append(successor)
        frontier = nxt
    return frozenset(seen)


def derivations(seed: FormTree, max_steps: int) -> Dict[FormTree, Derivation]:
    """Shortest left-replication derivation for every reachable tree."""
    if max_steps < 0:
        raise GrammarError("max_steps must be nonnegative")
    out = {seed: Derivation(seed, (), seed)}
    frontier = [seed]
    for _ in range(max_steps):
        nxt = []
        for tree in frontier:
            base = out[tree]
            for path, successor in _successors(tree):
                if successor not in out:
                    out[successor] = Derivation(
                        seed, base.steps + (path,), successor)
                    nxt.append(successor)
        frontier = nxt
    return out


def replay(derivation: Derivation) -> FormTree:
    tree = derivation.seed
    for path in derivation.steps:
        tree = left_replicate(tree, path)
    return tree


def recognize(form: str, seed: FormTree,
              max_steps: int = MAX_DERIVATION_STEPS) -> Optional[int]:
    """Minimal root-level left-replications taking the seed to the form.

    Returns None when the form is not derivable. Inverse rewriting: strip
    one duplicated leading segment per step.
    """
    if not form:
        raise GrammarError("empty form")
    if not form.isalpha() or not form.isupper():
        raise GrammarError(f"form must be uppercase letters, got {form!r}")
    base = flatten(seed)
    head = flatten(seed.children[0]) if isinstance(seed, Node) else None
    count = 0
    rest = form
    while rest != base:
        if head is None or not rest.startswith(head):
            return None
        rest = rest[len(head):]
        count += 1
    if count > max_steps:
        raise GrammarError(
            f"derivation needs {count} steps, over the {max_steps}-step bound")
    return count


def recognize_tree(target: FormTree, seed: FormTree,
                   max_steps: int = MAX_DERIVATION_STEPS) -> Optional[Derivation]:
    """Hierarchical recognition: minimal derivation to an exact tree.

    Searches backward by collapsing duplicated leading children anywhere
    in the tree; returns the replayable forward derivation, or None.
    """

    def collapses(tree: FormTree, prefix: Path = ()) -> Iterator[Tuple[Path, FormTree]]:
        if isinstance(tree, Leaf):
            return
        if len(tree.children) >= 3 and tree.children[0] == tree.children[1]:
            yield prefix, Node(tree.children[1:])
        for i, child in enumerate(tree.children):
            for path, collapsed in collapses(child, prefix + (i,)):
                children = list(tree.children)
                children[i] = collapsed
                yield path, Node(tuple(children))

    if target == seed:
        return Derivation(seed, (), target)
    seen = {target}
    frontier = [(target, ())]  # (tree, forward steps accumulated)
    for _ in range(max_steps):
        nxt = []
        for tree, steps in frontier:
            for path, smaller in collapses(tree):
                if smaller in seen:
                    continue
                forward = (path,) + steps
                if smaller == seed:
                    return Derivation(seed, forward, target)
                seen.add(smaller)
                nxt.append((smaller, forward))
        frontier = nxt
        if not frontier:
            return None
    if frontier:
        raise GrammarError(
            f"derivation search exceeded the {max_steps}-step bound")
    return None


def predicted_climax_position(n_copies: int,
                              segment_lengths: Tuple[Fraction, Fraction]) -> Fraction:
    """Normalized onset of B after n left-replications of A."""
    if n_copies < 1:
        raise GrammarError("n_copies must be at least 1")
    len_a, len_b = (Fraction(x) for x in segment_lengths)
    if len_a <= 0 or len_b <= 0:
        raise GrammarError("segment lengths must be positive")
    return (n_copies * len_a) / (n_copies * len_a + len_b)


def sentence_check(durations: Tuple[Fraction, Fraction, Fraction],
                   tolerance: float = 0.0) -> bool:
    """Short-short-long test: d1:d2 near 1:1 and d3 near d1+d2."""
    if tolerance < 0:
        raise GrammarError("tolerance must be nonnegative")
    d1, d2, d3 = (Fraction(x) for x in durations)
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        raise GrammarError("durations must be positive")
    return abs(d1 / d2 - 1) <= tolerance and abs(d3 / (d1 + d2) - 1) <= tolerance


@dataclass(frozen=True)
class SonataAlignment:
    """Sonata sections aligned with form letters and background segments."""

    mode: str
    rows: Tuple[Tuple[str, str, str], ...]
    interruption_before: str

    @property
    def form(self) -> str:
        return "".join(letter for _, letter, _ in self.rows)


_SONATA_ROWS = (
    ("exposition", "A", "3̂/I 2̂/V"),
    ("exposition-repeat", "A", "3̂/I 2̂/V"),
    ("development", "B", "—"),
    ("recapitulation", "A", "1̂/I"),
)


def sonata_alignment(mode: str = "figure3") -> SonataAlignment:
    """The fixed sonata/interruption alignment schema.

    figure3 reads the interruption as the exposition repeat; figure2 is
    the older reading that puts it at the recapitulation boundary.
    """
    if mode == "figure3":
        return SonataAlignment(mode, _SONATA_ROWS, "exposition-repeat")
    if mode == "figure2":
        return SonataAlignment(mode, _SONATA_ROWS, "recapitulation")
    raise GrammarError(f"unknown alignment mode {mode!r}")


def time_reverse(form: str) -> str:
    if not form:
        raise GrammarError("empty form")
    return form[::-1]
