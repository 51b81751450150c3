from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from arcform import (GrammarError, Leaf, Node, flatten, generate,
                     left_replicate, parse_form, parse_tree,
                     predicted_climax_position, recognize, recognize_tree,
                     right_replicate, sentence_check, sonata_alignment,
                     time_reverse, tree_to_str)
from arcform.grammar import derivations, replay

from oracles import left_language, right_language

AB = parse_form("AB")
ABA = parse_form("ABA")


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


def test_generalized_child_replication():
    assert flatten(left_replicate(AB, (), child=1)) == "ABB"


def test_right_replicate_mirror():
    assert flatten(right_replicate(AB)) == "ABB"


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


def test_recognize_step_bound():
    with pytest.raises(GrammarError, match="bound"):
        recognize("A" * 40 + "B", AB)
    assert recognize("A" * 33 + "B", AB, max_steps=64) == 32


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
        predicted_climax_position(0, (1, 1))


# --- sentence check -------------------------------------------------------------

def test_sentence_exact_1_1_2():
    assert sentence_check((2, 2, 4), 0.0) is True


def test_sentence_tolerance_boundary():
    assert sentence_check((2, 2, 5), 0.1) is False
    assert sentence_check((2, 2, 5), 0.3) is True


def test_sentence_rejects_non_positive():
    with pytest.raises(GrammarError):
        sentence_check((0, 2, 4))


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
    with pytest.raises(GrammarError):
        time_reverse("")
