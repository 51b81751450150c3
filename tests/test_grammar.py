from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from arcform import (Derivation, GrammarError, Leaf, Node, flatten, generate,
                     left_replicate, parse_form, parse_tree,
                     predicted_climax_position, recognize, recognize_tree,
                     right_replicate, sentence_check, sonata_alignment,
                     time_reverse, tree_to_str)
from arcform.grammar import (MAX_DERIVATION_STEPS, MAX_TREE_DEPTH,
                             derivations, node_paths, replay)

from oracles import left_language, oracle_parse_tree, right_language

AB = parse_form("AB")
ABA = parse_form("ABA")
NESTED = parse_tree("((A B) (C D E) F)")


def nested_text(depth: int) -> str:
    """A tree `depth` levels deep: "(A B B)" wrapped as "(... B)"."""
    return "(" * depth + "A B" + " B)" * depth


def parse_outcome(parse, text):
    """The parsed tree, or the GrammarError message."""
    try:
        return parse(text)
    except GrammarError as exc:
        return str(exc)


# --- trees and the rewrite ----------------------------------------------------

def test_leaf_and_node_validation():
    with pytest.raises(GrammarError):
        Leaf("ab")
    with pytest.raises(GrammarError):
        Leaf("a")
    with pytest.raises(GrammarError):
        Node((Leaf("A"),))


def test_tree_serialization_round_trip():
    tree = Node((Node((Leaf("A"), Leaf("A"), Leaf("B"))), Leaf("A")))
    assert tree_to_str(tree) == "((A A B) A)"
    assert parse_tree("((A A B) A)") == tree
    assert flatten(tree) == "AABA"


tree_texts = st.recursive(
    st.sampled_from("AB").map(Leaf),
    lambda kids: st.lists(kids, min_size=2, max_size=3).map(
        lambda children: Node(tuple(children))),
    max_leaves=8).map(tree_to_str)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(alphabet="()ABa ", max_size=14), tree_texts))
@example("((A A B) A)")
@example("(A (B A) B)")
@example("( A ) B")
@example(") A")
@example("")
def test_parse_tree_agrees_with_recursive_oracle(text):
    assert parse_outcome(parse_tree, text) == parse_outcome(oracle_parse_tree,
                                                            text)


def test_depth_is_not_part_of_equality_or_repr():
    tree = Node((Leaf("A"), Leaf("B")))
    assert tree.depth == 1 and Leaf("A").depth == 0
    assert tree == AB and hash(tree) == hash(AB)
    assert repr(tree) == "Node(children=(Leaf(label='A'), Leaf(label='B')))"
    assert NESTED.depth == 2


def test_trees_at_the_depth_bound_work_everywhere():
    assert MAX_TREE_DEPTH == 64
    text = nested_text(MAX_TREE_DEPTH)
    tree = parse_tree(text)
    assert tree.depth == MAX_TREE_DEPTH
    assert tree_to_str(tree) == text
    assert parse_tree(tree_to_str(tree)) == tree
    assert flatten(tree) == "AB" + "B" * MAX_TREE_DEPTH
    paths = list(node_paths(tree))
    deepest = (0,) * (MAX_TREE_DEPTH - 1)
    assert len(paths) == MAX_TREE_DEPTH and paths[-1] == deepest
    grown = left_replicate(tree, deepest)
    assert flatten(grown) == "AAB" + "B" * MAX_TREE_DEPTH
    assert grown.depth == MAX_TREE_DEPTH
    assert recognize_tree(tree, tree) == Derivation(tree, (), tree)
    assert recognize_tree(grown, tree).steps == (deepest,)


@pytest.mark.parametrize("depth", [MAX_TREE_DEPTH + 1, 5000])
def test_deeper_trees_raise_grammar_error(depth):
    with pytest.raises(GrammarError,
                       match=f"tree nested deeper than {MAX_TREE_DEPTH} levels"):
        parse_tree(nested_text(depth))


def test_hand_built_node_chain_one_level_too_deep():
    tree = Leaf("A")
    for _ in range(MAX_TREE_DEPTH):
        tree = Node((tree, Leaf("B")))
    assert tree.depth == MAX_TREE_DEPTH
    with pytest.raises(GrammarError, match="deeper than"):
        Node((tree, Leaf("B")))
    with pytest.raises(GrammarError, match="deeper than"):
        Node((Leaf("B"), Leaf("C"), tree))


def test_left_replicate_root():
    assert flatten(left_replicate(AB)) == "AAB"
    assert flatten(left_replicate(ABA)) == "AABA"


def test_left_replicate_nested():
    tree = Node((Node((Leaf("A"), Leaf("B"))), Leaf("C")))
    out = left_replicate(tree, (0,))
    assert tree_to_str(out) == "((A A B) C)"


def test_left_replicate_bad_path():
    with pytest.raises(GrammarError):
        left_replicate(AB, (0,))  # leaf
    with pytest.raises(GrammarError):
        left_replicate(AB, (5,))
    with pytest.raises(GrammarError):
        left_replicate(AB, (2,))  # one past the last child


def test_generalized_child_replication():
    assert flatten(left_replicate(AB, (), child=1)) == "ABB"


def test_right_replicate_mirror():
    assert flatten(right_replicate(AB)) == "ABB"


@pytest.mark.parametrize("tree", [AB, ABA, parse_tree("((A B) C)"), NESTED])
def test_last_child_replication_is_the_mirror_rule(tree):
    for path in node_paths(tree):
        assert left_replicate(tree, path, child=-1) == \
            right_replicate(tree, path)


def test_negative_child_indices_count_from_the_end():
    assert left_replicate(AB, (), child=-2) == left_replicate(AB)
    with pytest.raises(GrammarError, match="child index -3 out of range"):
        left_replicate(AB, (), child=-3)
    with pytest.raises(GrammarError, match="child index 2 out of range"):
        left_replicate(AB, (), child=2)


# --- generate -------------------------------------------------------------------

def test_generate_zero_steps():
    assert {flatten(t) for t in generate(AB, 0)} == {"AB"}


def test_generate_flat_two_steps_matches_oracle():
    got = {flatten(t) for t in generate(AB, 2)}
    assert got == {"AB", "AAB", "AAAB"}
    assert got == left_language("AB", 2)


def test_generate_aba_one_step():
    assert {flatten(t) for t in generate(ABA, 1)} == {"ABA", "AABA"}


def test_generate_negative_steps_rejected():
    with pytest.raises(GrammarError):
        generate(AB, -1)


def test_forward_search_step_bound():
    got = {flatten(t) for t in generate(AB, MAX_DERIVATION_STEPS)}
    assert got == {"A" * n + "B" for n in range(1, MAX_DERIVATION_STEPS + 2)}
    for search in (generate, derivations):
        for steps in (-1, MAX_DERIVATION_STEPS + 1, 3000):
            with pytest.raises(GrammarError,
                               match=f"max_steps must be in 0..32, got {steps}"):
                search(AB, steps)


def test_flat_language_matches_bfs_oracle_to_depth_6():
    for depth in range(7):
        got = {flatten(t) for t in generate(AB, depth)}
        assert got == left_language("AB", depth)
        assert got == {"A" * n + "B" for n in range(1, depth + 2)}


def test_mirror_asymmetry_of_the_two_languages():
    left = {flatten(t) for t in generate(AB, 6)}
    right = {flatten(t) for t in generate(AB, 6, rule=right_replicate)}
    assert left & right == {"AB"}
    assert right == right_language("AB", 6)


# --- derivations / replay --------------------------------------------------------

def test_derivations_replay_soundness():
    seed = Node((Node((Leaf("A"), Leaf("B"))), Leaf("C")))
    for tree, derivation in derivations(seed, 3).items():
        assert replay(derivation) == tree
        assert len(derivation.steps) <= 3


@pytest.mark.parametrize("seed", [ABA, parse_tree("((A B) C)"), NESTED])
def test_derivations_are_minimal(seed):
    found = derivations(seed, 4)
    assert len(found) >= 5
    for tree, derivation in found.items():
        assert len(derivation.steps) == len(recognize_tree(tree, seed).steps)


def test_recognize_tree_returns_replayable_derivation():
    target = parse_tree("((A A B) C)")
    seed = parse_tree("((A B) C)")
    derivation = recognize_tree(target, seed)
    assert derivation is not None
    assert replay(derivation) == target
    assert len(derivation.steps) == 1


def test_recognize_tree_not_derivable():
    assert recognize_tree(parse_form("ABB"), AB) is None


def test_generate_recognize_consistency():
    for k in range(4):
        for tree in generate(ABA, k):
            derivation = recognize_tree(tree, ABA)
            assert derivation is not None
            assert len(derivation.steps) <= k


# --- recognize (flat) -------------------------------------------------------------

def test_recognize_anchors():
    assert recognize("AAB", AB) == 1
    assert recognize("AABA", ABA) == 1
    assert recognize("ABB", AB) is None


def test_recognize_longer_prefix():
    assert recognize("AAAAB", AB) == 3


def test_recognize_identity_and_leaf_seed():
    assert recognize("AB", AB) == 0
    assert recognize("A", Leaf("A")) == 0
    assert recognize("AA", Leaf("A")) is None


def test_recognize_rejects_bad_form():
    with pytest.raises(GrammarError):
        recognize("", AB)
    with pytest.raises(GrammarError):
        recognize("a1b", AB)
    with pytest.raises(GrammarError):
        recognize("A1", AB)  # upper case, but not all letters


def test_recognize_step_bound():
    with pytest.raises(GrammarError, match="bound"):
        recognize("A" * 40 + "B", AB)
    assert recognize("A" * 33 + "B", AB, max_steps=64) == 32
    assert recognize("A" * 33 + "B", AB) == 32  # exactly at the bound


def test_recognize_long_form_hits_bound_without_recursion():
    with pytest.raises(GrammarError, match="needs 2999 steps, over the 32"):
        recognize("A" * 3000 + "B", AB)
    assert recognize("A" * 3000 + "C", AB) is None


@given(st.integers(0, 6))
def test_every_derivable_string_ends_like_the_seed(k):
    # left-replication never touches the final leaf
    for tree in generate(AB, k):
        assert flatten(tree).endswith("B")


# --- predicted climax position ------------------------------------------------

def test_predicted_position_symmetric_seed():
    assert predicted_climax_position(1, (Fraction(8), Fraction(8))) == \
        Fraction(1, 2)


def test_predicted_position_arithmetic():
    assert predicted_climax_position(2, (1, 1)) == Fraction(2, 3)
    assert predicted_climax_position(3, (1, 1)) == Fraction(3, 4)
    # cross-check by summing the segment spans
    n, a, b = 3, Fraction(2), Fraction(5)
    spans = [a] * n + [b]
    assert predicted_climax_position(n, (a, b)) == \
        sum(spans[:-1]) / sum(spans)


def test_predicted_position_strictly_increasing():
    values = [predicted_climax_position(n, (1, 1)) for n in range(1, 11)]
    assert all(x < y for x, y in zip(values, values[1:]))
    assert values == [Fraction(n, n + 1) for n in range(1, 11)]


def test_predicted_position_rejects_bad_lengths():
    with pytest.raises(GrammarError):
        predicted_climax_position(1, (0, 1))
    with pytest.raises(GrammarError):
        predicted_climax_position(1, (1, 0))
    with pytest.raises(GrammarError):
        predicted_climax_position(0, (1, 1))


# --- sentence check -------------------------------------------------------------

def test_sentence_exact_1_1_2():
    assert sentence_check((2, 2, 4), 0.0) is True
    assert sentence_check((1, 1, 2)) is True  # the default tolerance is 0
    assert sentence_check((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))


def test_sentence_tolerance_boundary():
    assert sentence_check((2, 2, 5), 0.1) is False
    assert sentence_check((2, 2, 5), 0.3) is True


def test_sentence_rejects_non_positive():
    with pytest.raises(GrammarError):
        sentence_check((0, 2, 4))
    with pytest.raises(GrammarError):
        sentence_check((2, 0, 4))
    with pytest.raises(GrammarError):
        sentence_check((2, 2, 0))


# --- sonata alignment -----------------------------------------------------------

def test_sonata_alignment_figure3():
    alignment = sonata_alignment("figure3")
    assert alignment.rows == (
        ("exposition", "A", "3̂/I 2̂/V"),
        ("exposition-repeat", "A", "3̂/I 2̂/V"),
        ("development", "B", "—"),
        ("recapitulation", "A", "1̂/I"),
    )
    assert alignment.interruption_before == "exposition-repeat"
    assert alignment.form == "AABA"


def test_sonata_alignment_figure2():
    alignment = sonata_alignment("figure2")
    assert alignment.interruption_before == "recapitulation"
    assert alignment.form == "AABA"
    with pytest.raises(GrammarError):
        sonata_alignment("figure9")


# --- time reversal ---------------------------------------------------------------

@pytest.mark.parametrize("form,expected", [
    ("AAB", "BAA"), ("AB", "BA"), ("AABA", "ABAA")])
def test_time_reverse(form, expected):
    assert time_reverse(form) == expected


def test_time_reverse_empty():
    with pytest.raises(GrammarError, match="empty form"):
        time_reverse("")


@pytest.mark.parametrize("form", ["ab", "A1"])
def test_time_reverse_rejects_malformed_forms(form):
    with pytest.raises(GrammarError, match="uppercase letters"):
        time_reverse(form)
