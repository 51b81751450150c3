"""Temporal-structure analysis of symbolic music.

Score I/O, transposition-invariant recurrence detection, climax
asymmetry statistics, and the AB -> AAB left-replication form grammar.
"""

__version__ = "0.1.0"

from .climax import ClimaxProfile, climax_profile, locate_climax, salience_curve
from .config import AnalysisConfig
from .errors import (AnalysisError, ArcformError, GrammarError, MidiError,
                     NotesParseError, ScoreFormatError)
from .grammar import (Derivation, FormTree, Leaf, Node, SonataAlignment,
                      flatten, generate, left_replicate, parse_form,
                      parse_tree, predicted_climax_position, recognize,
                      recognize_tree, right_replicate, sentence_check,
                      sonata_alignment, time_reverse, tree_to_str)
from .recurrence import (IntervalProfile, RecurrenceMatch, RecurrenceSeries,
                         chromaticism_index, classify_cadence, estimate_key,
                         find_recurrences, interval_profile, similarity)
from .score import (NoteEvent, Part, Piece, import_midi, key_name,
                    parse_key_name, parse_text, serialize_text, skyline)
