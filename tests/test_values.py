"""The value classes' contract: equality, hash, repr, immutability,
constructor signatures and JSON rendering, pinned for the twelve that
compare by their fields. `Curve`, which compares as the tuple of its
rows, is pinned in `test_climax.py`."""

import copy
import importlib
import inspect
import json
import pickle
from fractions import Fraction as F
from functools import cached_property

import pytest

from arcform import (AnalysisConfig, AnalysisError, ClimaxProfile,
                     Derivation, GrammarError, IntervalProfile, Leaf, Node,
                     NoteEvent, Part, Piece, RecurrenceMatch, RecurrenceSeries,
                     SonataAlignment, salience_curve, sonata_alignment)
from arcform.report import build_report, render_json
from oracles import jsonable

A, B = Leaf("A"), Leaf("B")
AB = Node((A, B))
NOTES = (NoteEvent(1, F(1, 2), 60), NoteEvent(0, 1, 62, 70, 1))
PART = Part(1, NOTES)
QUERY = IntervalProfile((1,), (F(1, 2),))
MATCH = RecurrenceMatch(0, 1, F(0), F(2), 0.75)
CURVE = ((F(0), 0.5), (F(1), 1.0))

# class, constructor arguments, arguments of an unequal value, field
# names in order, and the exact repr of the first value
CASES = [
    (NoteEvent, (F(1), F(1, 2), 60), (F(1), F(1, 2), 61),
     ("onset", "duration", "pitch", "velocity", "voice"),
     "NoteEvent(onset=Fraction(1, 1), duration=Fraction(1, 2), pitch=60, "
     "velocity=64, voice=0)"),
    (Part, (1, NOTES), (1, NOTES[:1]),
     ("voice", "scale", "onsets", "durations", "pitches", "velocities",
      "voices"),
     "Part(voice=1, scale=2, onsets=(0, 2), durations=(2, 1), "
     "pitches=(62, 60), velocities=(70, 64), voices=(1, 0))"),
    (Piece, ((PART,), (0, "major"), "T"), ((PART,), (0, "minor"), "T"),
     ("parts", "key", "title"),
     "Piece(parts=(Part(voice=1, scale=2, onsets=(0, 2), durations=(2, 1), "
     "pitches=(62, 60), velocities=(70, 64), voices=(1, 0)),), "
     "key=(0, 'major'), title='T')"),
    (ClimaxProfile, (CURVE, F(1), 1.0, 1.0, 0.5),
     (CURVE, F(1), 1.0, 1.0, 0.25),
     ("curve", "peak_time", "normalized_position", "asymmetry_index",
      "pre_mass_fraction"),
     "ClimaxProfile(curve=((Fraction(0, 1), 0.5), (Fraction(1, 1), 1.0)), "
     "peak_time=Fraction(1, 1), normalized_position=1.0, "
     "asymmetry_index=1.0, pre_mass_fraction=0.5)"),
    (AnalysisConfig, (), (F(2),),
     ("window", "w_pitch", "w_density", "w_velocity", "sim_pitch",
      "sim_rhythm", "threshold"),
     "AnalysisConfig(window=Fraction(4, 1), w_pitch=0.4, w_density=0.3, "
     "w_velocity=0.3, sim_pitch=0.7, sim_rhythm=0.3, threshold=0.6)"),
    (IntervalProfile, ((1,), (F(1, 2),)), ((2,), (F(1, 2),)),
     ("steps", "ratios"),
     "IntervalProfile(steps=(1,), ratios=(Fraction(1, 2),))"),
    (RecurrenceMatch, (0, 1, F(0), F(2), 0.75), (0, 1, F(0), F(2), 0.5),
     ("occurrence_index", "part", "start", "end", "similarity"),
     "RecurrenceMatch(occurrence_index=0, part=1, start=Fraction(0, 1), "
     "end=Fraction(2, 1), similarity=0.75)"),
    (RecurrenceSeries, (QUERY, (MATCH,), None), (QUERY, (MATCH,), 0),
     ("query", "matches", "outlier_index"),
     "RecurrenceSeries(query=IntervalProfile(steps=(1,), "
     "ratios=(Fraction(1, 2),)), matches=(RecurrenceMatch(occurrence_index=0, "
     "part=1, start=Fraction(0, 1), end=Fraction(2, 1), similarity=0.75),), "
     "outlier_index=None)"),
    (Leaf, ("A",), ("B",), ("label",), "Leaf(label='A')"),
    (Node, ((A, B),), ((A, A, B),), ("children",),
     "Node(children=(Leaf(label='A'), Leaf(label='B')))"),
    (Derivation, (AB, ((),), AB), (AB, (), AB), ("seed", "steps", "result"),
     "Derivation(seed=Node(children=(Leaf(label='A'), Leaf(label='B'))), "
     "steps=((),), result=Node(children=(Leaf(label='A'), "
     "Leaf(label='B'))))"),
    (SonataAlignment, ("m", (("x", "A", "-"),), "x"),
     ("m", (("x", "A", "-"),), "y"), ("mode", "rows", "interruption_before"),
     "SonataAlignment(mode='m', rows=(('x', 'A', '-'),), "
     "interruption_before='x')"),
]
IDS = [case[0].__name__ for case in CASES]

# every constructor's parameters and defaults; REQ marks none
REQ = inspect.Parameter.empty
SIGNATURES = {
    NoteEvent: [("onset", REQ), ("duration", REQ), ("pitch", REQ),
                ("velocity", 64), ("voice", 0)],
    Part: [("voice", 0), ("events", ())],
    Piece: [("parts", ()), ("key", None), ("title", "")],
    ClimaxProfile: [("curve", REQ), ("peak_time", REQ),
                    ("normalized_position", REQ), ("asymmetry_index", REQ),
                    ("pre_mass_fraction", REQ)],
    AnalysisConfig: [("window", F(4)), ("w_pitch", 0.4), ("w_density", 0.3),
                     ("w_velocity", 0.3), ("sim_pitch", 0.7),
                     ("sim_rhythm", 0.3), ("threshold", 0.6)],
    IntervalProfile: [("steps", REQ), ("ratios", REQ)],
    RecurrenceMatch: [("occurrence_index", REQ), ("part", REQ),
                      ("start", REQ), ("end", REQ), ("similarity", REQ)],
    RecurrenceSeries: [("query", REQ), ("matches", REQ),
                       ("outlier_index", REQ)],
    Leaf: [("label", REQ)],
    Node: [("children", REQ)],
    Derivation: [("seed", REQ), ("steps", REQ), ("result", REQ)],
    SonataAlignment: [("mode", REQ), ("rows", REQ),
                      ("interruption_before", REQ)],
}


def _values(obj, names):
    return tuple(getattr(obj, name) for name in names)


@pytest.mark.parametrize("cls,args,other,names,text", CASES, ids=IDS)
def test_equality_is_same_class_and_same_fields(cls, args, other, names, text):
    value, twin = cls(*args), cls(*args)
    assert value == twin and not value != twin
    assert value != cls(*other)
    assert value != _values(value, names)
    assert _values(value, names) != value
    # a subclass adds nothing, yet its values are of another class
    lookalike = type("Lookalike", (cls,), {})(*args)
    assert _values(lookalike, names) == _values(value, names)
    assert value != lookalike and lookalike != value


@pytest.mark.parametrize("cls,args,other,names,text", CASES, ids=IDS)
def test_equal_values_hash_equal(cls, args, other, names, text):
    assert hash(cls(*args)) == hash(cls(*args))
    assert len({cls(*args), cls(*args), cls(*other)}) == 2


@pytest.mark.parametrize("cls,args,other,names,text", CASES, ids=IDS)
def test_repr_shows_the_fields_in_order(cls, args, other, names, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,other,names,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, args, other, names, text):
    value = cls(*args)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == cls(*args)


@pytest.mark.parametrize("cls,args,other,names,text", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, args, other, names, text):
    value = cls(*args)
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda cls: cls.__name__)
def test_constructor_signature(cls):
    params = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in params] == SIGNATURES[cls]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)


def test_note_event_converts_numbers_to_fractions():
    note = NoteEvent(1, 0.5, 60)
    assert type(note.onset) is F and note.onset == 1
    assert type(note.duration) is F and note.duration == F(1, 2)
    assert note == NoteEvent(F(1), F(1, 2), 60)
    assert note.end == F(3, 2)


@pytest.mark.parametrize("args,message", [
    ((0, 0, 60), "non-positive duration"),
    ((-1, 1, 60), "negative onset"),
    ((0, 1, 128), "pitch out of range"),
    ((0, 1, 60, 0), "velocity out of range"),
])
def test_note_event_errors(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        NoteEvent(*args)


def test_node_depth_is_not_a_field():
    tree = Node((AB, Leaf("C")))
    assert (AB.depth, tree.depth, A.depth) == (1, 2, 0)
    assert "depth" not in repr(tree)
    with pytest.raises(AttributeError):
        tree.depth = 5


def test_part_and_piece_cache_what_they_derive():
    piece = Piece((PART,))
    assert PART.events is PART.events
    assert PART.events == (NOTES[1], NOTES[0])
    assert piece.timeline is piece.timeline
    assert piece.timeline == (2, (0, 2), (2, 3))
    assert piece.beats_total is piece.beats_total


def test_copies_and_pickles_carry_fields_not_caches():
    piece = Piece((Part(1, NOTES), Part(0, NOTES[:1])))
    curve = salience_curve(piece)
    values = (curve, *piece.parts, piece)
    pickles = [pickle.dumps(value) for value in values]
    for value in values:
        for name, attr in vars(type(value)).items():
            if isinstance(attr, cached_property):
                getattr(value, name)
                assert name in vars(value)
    assert [pickle.dumps(value) for value in values] == pickles
    assert pickle.loads(pickles[0]).rows == curve.rows
    tree = Node((AB, Leaf("C")))
    for copied in (copy.copy(tree), copy.deepcopy(tree),
                   pickle.loads(pickle.dumps(tree))):
        assert copied.depth == 2


def test_properties_and_len():
    config = AnalysisConfig()
    assert config.salience_weights == (0.4, 0.3, 0.3)
    assert config.similarity_weights == (0.7, 0.3)
    assert MATCH.deviation == 0.25
    assert len(QUERY) == 1
    assert len(PART) == 2
    assert sonata_alignment().form == "AABA"


def test_config_round_trips_through_the_report():
    config = AnalysisConfig(F(3, 2), 0.5, 0.25, 0.25, 0.6, 0.4, 0.75)
    report = json.loads(render_json(build_report(
        Piece((PART,)), "x.notes", config, "0")))
    assert AnalysisConfig(**report["config"]) == config
    assert AnalysisConfig(**json.loads(render_json(AnalysisConfig()))) \
        == AnalysisConfig()


def test_jsonable_renders_config_and_climax_profile():
    assert jsonable(AnalysisConfig()) == {
        "window": "4", "w_pitch": 0.4, "w_density": 0.3, "w_velocity": 0.3,
        "sim_pitch": 0.7, "sim_rhythm": 0.3, "threshold": 0.6}
    profile = ClimaxProfile(CURVE, F(1), 1.0, 1.0, 0.5)
    assert jsonable(profile) == {
        "curve": [["0", 0.5], ["1", 1.0]], "peak_time": "1",
        "normalized_position": 1.0, "asymmetry_index": 1.0,
        "pre_mass_fraction": 0.5}
    assert render_json(profile) == (
        '{\n  "asymmetry_index": 1.0,\n  "curve": [\n    [\n      "0",\n'
        '      0.5\n    ],\n    [\n      "1",\n      1.0\n    ]\n  ],\n'
        '  "normalized_position": 1.0,\n  "peak_time": "1",\n'
        '  "pre_mass_fraction": 0.5\n}\n')


@pytest.mark.parametrize("build,error,message", [
    (lambda: Piece(key=(12, "major")), ValueError, r"bad key \(12, 'major'\)"),
    (lambda: Piece(key=(0, "dorian")), ValueError, "bad key"),
    (lambda: IntervalProfile((1, 2), (F(1),)), ValueError,
     "steps/ratios length mismatch"),
    (lambda: Leaf("a"), GrammarError,
     "leaf label must be one uppercase letter, got 'a'"),
    (lambda: Node((A,)), GrammarError, "node needs at least two children"),
    (lambda: AnalysisConfig(window=0), AnalysisError,
     "window must be positive"),
    (lambda: AnalysisConfig(threshold=0), AnalysisError,
     r"threshold must be in \(0, 1\]"),
    (lambda: AnalysisConfig(w_pitch=0.5), AnalysisError,
     "weights must be 3 nonnegative values summing to 1"),
    (lambda: AnalysisConfig(sim_pitch=-0.7, sim_rhythm=1.7), AnalysisError,
     "weights must be 2 nonnegative values summing to 1"),
], ids=["tonic", "mode", "profile", "leaf", "node", "window", "threshold",
        "salience-weights", "similarity-weights"])
def test_constructors_validate(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_constructors_store_sequences_as_tuples():
    assert Piece([PART]).parts == (PART,)
    assert Node([A, B]).children == (A, B)
    assert AnalysisConfig(window=3).window == F(3)
    assert type(AnalysisConfig(window="3/2").window) is F


@pytest.mark.parametrize("module", ["score", "climax", "config", "grammar",
                                    "recurrence", "report"])
def test_every_public_name_imports(module):
    mod = importlib.import_module(f"arcform.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
