import inspect

from arcform.climax import climax_profile, salience_curve
from arcform.config import AnalysisConfig
from arcform.recurrence import find_recurrences, similarity


def _defaults(func):
    return {name: p.default
            for name, p in inspect.signature(func).parameters.items()
            if p.default is not inspect.Parameter.empty}


def test_library_defaults_are_the_config_defaults():
    config = AnalysisConfig()
    salience = {"weights": config.salience_weights, "window": config.window}
    assert _defaults(salience_curve) == salience
    assert _defaults(climax_profile) == salience
    assert _defaults(similarity) == {"weights": config.similarity_weights}
    assert _defaults(find_recurrences) == {
        "threshold": config.threshold, "weights": config.similarity_weights}
