"""The policy examples run end to end and print their policy's output.

``examples/elastic_scaling.py`` and ``examples/approximate_emission.py``
construct the speculative engine through ``SpectreConfig``'s
``elasticity`` and ``emission_threshold`` fields; each must finish and
print its adaptation / early-emission lines.
"""

import re
import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, capsys):
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_elastic_scaling_prints_adaptations(capsys):
    out = run_example("elastic_scaling.py", capsys)
    assert "adaptations: cycle" in out


def test_approximate_emission_prints_early_emissions(capsys):
    out = run_example("approximate_emission.py", capsys)
    # the 0.9-threshold row: some early emissions, full recall
    assert re.search(r"^ +0\.9 +[1-9][0-9]* +[0-9]+% +100%", out,
                     re.MULTILINE)
