"""Left-replication form grammar: AB -> AAB, generation and recognition.

A form tree is either a Leaf (one uppercase letter) or a Node with at
least two ordered children, nested at most MAX_TREE_DEPTH levels. The
core rewrite duplicates a node's first child in place; the mirrored rule
(last child appended) exists only so the asymmetry of the two languages
can be checked. Forward searches stop at MAX_DERIVATION_STEPS rewrites.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .errors import GrammarError
from .value import Value

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
    "MAX_TREE_DEPTH",
]

MAX_DERIVATION_STEPS = 32
# Deep enough for any real form, shallow enough that every recursive
# walk over a tree stays far from Python's recursion limit.
MAX_TREE_DEPTH = 64


class Leaf(Value):
    _fields = ("label",)
    depth = 0  # a class attribute, not a field: leaves add no level

    def __init__(self, label: str) -> None:
        if len(label) != 1 or not label.isupper():
            raise GrammarError(f"leaf label must be one uppercase letter, "
                               f"got {label!r}")
        vars(self).update(label=label)


class Node(Value):
    _fields = ("children",)  # depth, derived from them, is no field

    def __init__(self, children: tuple[FormTree, ...]) -> None:
        children = tuple(children)
        if len(children) < 2:
            raise GrammarError("node needs at least two children")
        depth = 1 + max(c.depth for c in children)
        if depth > MAX_TREE_DEPTH:
            raise GrammarError(
                f"tree nested deeper than {MAX_TREE_DEPTH} levels")
        vars(self).update(children=children, depth=depth)


FormTree = Leaf | Node
Path = tuple[int, ...]


class Derivation(Value):
    _fields = ("seed", "steps", "result")

    def __init__(self, seed: FormTree, steps: tuple[Path, ...],
                 result: FormTree) -> None:
        vars(self).update(seed=seed, steps=steps, result=result)


def _check_form(form: str) -> None:
    if not form:
        raise GrammarError("empty form")
    if not form.isalpha() or not form.isupper():
        raise GrammarError(f"form must be uppercase letters, got {form!r}")


def parse_form(form: str) -> FormTree:
    """Flat string like "AAB" to a tree (single letter becomes a Leaf)."""
    _check_form(form)
    if len(form) == 1:
        return Leaf(form)
    return Node(tuple(Leaf(c) for c in form))


def parse_tree(text: str) -> FormTree:
    """Parse the nested-parentheses serialization, e.g. "((A A B) A)"."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    if not tokens:
        raise GrammarError("unexpected end of tree text")
    open_nodes: list[list[FormTree]] = []  # children read so far, per "("
    for pos, tok in enumerate(tokens):
        if tok == "(":
            open_nodes.append([])
            continue
        if tok != ")":
            tree = Leaf(tok)
        elif open_nodes:
            tree = Node(tuple(open_nodes.pop()))
        else:
            raise GrammarError("unexpected ')'")
        if not open_nodes:
            if pos + 1 != len(tokens):
                raise GrammarError("trailing tokens after tree")
            return tree
        open_nodes[-1].append(tree)
    raise GrammarError("unbalanced parentheses")


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


def left_replicate(tree: FormTree, path: Path = (), child: int = 0) -> FormTree:
    """Duplicate the addressed node's child in place (default: the first).

    The default child=0 is the canonical rule AB -> AAB; other indices,
    negative ones counted from the end, are a generalization kept out of
    the core language results.
    """
    ancestors = []
    node = tree
    for i in path:
        if isinstance(node, Leaf) or not 0 <= i < len(node.children):
            raise GrammarError(f"path {path} out of range")
        ancestors.append(node)
        node = node.children[i]
    if isinstance(node, Leaf):
        raise GrammarError("cannot replicate inside a leaf")
    n = len(node.children)
    if not -n <= child < n:
        raise GrammarError(f"child index {child} out of range")
    k = child % n
    rebuilt = Node(node.children[:k + 1] + node.children[k:])
    for parent, i in zip(reversed(ancestors), reversed(path)):
        rebuilt = Node(parent.children[:i] + (rebuilt,) + parent.children[i + 1:])
    return rebuilt


def right_replicate(tree: FormTree, path: Path = ()) -> FormTree:
    """Mirror rule: append a copy of the last child (AB -> ABB)."""
    return left_replicate(tree, path, child=-1)


def _reach(seed: FormTree, max_steps: int,
           rule=left_replicate) -> dict[FormTree, tuple[Path, ...]]:
    """Breadth-first search: every tree reachable from the seed in at most
    max_steps rewrites, in discovery order, with the rewrite paths of the
    first (shortest) way it was found."""
    if not 0 <= max_steps <= MAX_DERIVATION_STEPS:
        raise GrammarError(f"max_steps must be in 0..{MAX_DERIVATION_STEPS}, "
                           f"got {max_steps}")
    reached = {seed: ()}
    frontier = [seed]
    for _ in range(max_steps):
        nxt = []
        for tree in frontier:
            steps = reached[tree]
            for path in node_paths(tree):
                successor = rule(tree, path)
                if successor not in reached:
                    reached[successor] = steps + (path,)
                    nxt.append(successor)
        frontier = nxt
    return reached


def generate(seed: FormTree, max_steps: int,
             rule=left_replicate) -> frozenset[FormTree]:
    """All trees reachable from the seed in at most max_steps rewrites."""
    return frozenset(_reach(seed, max_steps, rule))


def derivations(seed: FormTree, max_steps: int) -> dict[FormTree, Derivation]:
    """Shortest left-replication derivation for every reachable tree."""
    return {tree: Derivation(seed, steps, tree)
            for tree, steps in _reach(seed, max_steps).items()}


def replay(derivation: Derivation) -> FormTree:
    tree = derivation.seed
    for path in derivation.steps:
        tree = left_replicate(tree, path)
    return tree


def recognize(form: str, seed: FormTree,
              max_steps: int = MAX_DERIVATION_STEPS) -> int | None:
    """Minimal root-level left-replications taking the seed to the form.

    Returns None when the form is not derivable. Inverse rewriting: strip
    one duplicated leading segment per step.
    """
    _check_form(form)
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
                   max_steps: int = MAX_DERIVATION_STEPS) -> Derivation | None:
    """Hierarchical recognition: minimal derivation to an exact tree.

    Searches backward by collapsing duplicated leading children anywhere
    in the tree; returns the replayable forward derivation, or None.
    """

    def collapses(tree: FormTree, prefix: Path = ()) -> Iterator[tuple[Path, FormTree]]:
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
                              segment_lengths: tuple[Fraction, Fraction]) -> Fraction:
    """Normalized onset of B after n left-replications of A."""
    if n_copies < 1:
        raise GrammarError("n_copies must be at least 1")
    len_a, len_b = (Fraction(x) for x in segment_lengths)
    if len_a <= 0 or len_b <= 0:
        raise GrammarError("segment lengths must be positive")
    return (n_copies * len_a) / (n_copies * len_a + len_b)


def sentence_check(durations: tuple[Fraction, Fraction, Fraction],
                   tolerance: float = 0.0) -> bool:
    """Short-short-long test: d1:d2 near 1:1 and d3 near d1+d2."""
    if tolerance < 0:
        raise GrammarError("tolerance must be nonnegative")
    d1, d2, d3 = (Fraction(x) for x in durations)
    if d1 <= 0 or d2 <= 0 or d3 <= 0:
        raise GrammarError("durations must be positive")
    return abs(d1 / d2 - 1) <= tolerance and abs(d3 / (d1 + d2) - 1) <= tolerance


class SonataAlignment(Value):
    """Sonata sections aligned with form letters and background segments."""

    _fields = ("mode", "rows", "interruption_before")

    def __init__(self, mode: str, rows: tuple[tuple[str, str, str], ...],
                 interruption_before: str) -> None:
        vars(self).update(mode=mode, rows=rows,
                          interruption_before=interruption_before)

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
    _check_form(form)
    return form[::-1]
