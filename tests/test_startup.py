"""Start-up pays only for the command that runs.

`import bellkit`, `import bellkit.pvalues`, `--version`, `--help`, a usage
error, `bound`, `combine` and the four `rng` commands load no numpy,
`simulate` and `adversary` load no `numpy.ma`, and a command executes only
the analysis modules it uses. Each check runs in a
fresh interpreter, since the test process has long loaded everything.
"""
import json
import os
import subprocess
import sys

import pytest

import bellkit
from bellkit import pvalues, settings_audit, trials

SRC = os.path.dirname(os.path.dirname(bellkit.__file__))
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}


def imported_modules(*args, cwd=None):
    """(exit code, modules imported) of `python -X importtime ARGS` in a fresh process."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=ENV, cwd=cwd, capture_output=True, text=True
    )
    names = {line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines() if line.startswith("import time:")}
    return result.returncode, names


@pytest.fixture
def rng_inputs(tmp_path):
    """A directory with messages, and 64 classical and 8 quantum bits as ASCII files."""
    (tmp_path / "messages.txt").write_text("".join(f"message {i}\n" for i in range(64)), encoding="utf-8")
    for name, bits in (("bits", "01101001" * 8), ("quantum", "10110010")):
        (tmp_path / f"{name}.txt").write_text("".join(b + "\n" for b in bits), encoding="ascii")
    return tmp_path


RNG_COMMANDS = [
    ["rng", "extract", "--messages", "messages.txt", "--bits-out", "out.txt"],
    ["rng", "bias", "--bits", "bits.txt", "--block8"],
    ["rng", "combine", "--classical", "bits.txt", "--quantum", "quantum.txt", "--bits-out", "combined.txt"],
    ["rng", "independence", "--a", "bits.txt", "--b", "bits.txt"],
]


def test_the_probe_sees_numpy():
    # Guards the tests below against a probe that can see no import at all.
    code, names = imported_modules("-c", "import numpy")
    assert code == 0 and "numpy" in names


@pytest.mark.parametrize(
    "args, want_code",
    [
        (["-c", "import bellkit"], 0),
        (["-m", "bellkit.cli", "--version"], 0),
        (["-m", "bellkit.cli", "--help"], 0),
        (["-m", "bellkit.cli", "simulate"], 1),
        (["-m", "bellkit.cli", "rng", "--help"], 0),
        (["-m", "bellkit.cli", "bound", "--n", "300", "--k", "237", "--tau-grid", "0:0.01:0.001"], 0),
        (["-m", "bellkit.cli", "combine", "--mode", "merge", "--counts", "245:196,300:237"], 0),
        (["-m", "bellkit.cli", "combine", "--mode", "fisher", "--pvalues", "0.039,0.061"], 0),
        (["-c", "import bellkit.pvalues"], 0),
        *((["-m", "bellkit.cli", *command], 0) for command in RNG_COMMANDS),
    ],
    ids=["import", "version", "help", "usage-error", "subcommand-help", "bound", "combine-merge", "combine-fisher",
         "import-pvalues", "rng-extract", "rng-bias", "rng-combine", "rng-independence"],
)
def test_loads_no_numpy(args, want_code, rng_inputs):
    code, names = imported_modules(*args, cwd=rng_inputs)
    assert code == want_code
    assert "bellkit" in names
    assert not any(name == "numpy" or name.startswith("numpy.") for name in names)


@pytest.mark.parametrize(
    "args",
    [["simulate", "--strategy", "herald-gating", "--attempts", "2000"], ["adversary", "--n", "20", "--runs", "12"]],
    ids=["simulate", "adversary"],
)
def test_lhv_commands_load_no_masked_arrays(args, tmp_path):
    code, names = imported_modules("-m", "bellkit.cli", *args, cwd=tmp_path)
    assert code == 0 and "numpy" in names
    assert not any(name == "numpy.ma" or name.startswith("numpy.ma.") for name in names)


def test_rng_bias_executes_only_what_it_uses(tmp_path):
    (tmp_path / "bits.txt").write_text("0\n1\n1\n0\n1\n", encoding="ascii")
    script = (
        "import contextlib, io, json, sys, types\n"
        "from bellkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['rng', 'bias', '--bits', 'bits.txt']) == 0\n"
        "# A lazily loaded module turns into a plain module when its body runs.\n"
        "print(json.dumps({name.removeprefix('bellkit.'): type(module) is types.ModuleType\n"
        "                  for name, module in sys.modules.items() if name.startswith('bellkit.')}))\n"
    )
    result = subprocess.run([sys.executable, "-c", script], env=ENV, cwd=tmp_path, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    executed = json.loads(result.stdout)
    assert executed["randomness"] and executed["pvalues"]
    for name in ("trials", "lhv", "heralding", "settings_audit"):
        assert not executed.get(name, False), name


class TestExports:
    def test_every_export_is_its_modules_object(self):
        homes = {"pvalues": pvalues, "trials": trials, "settings_audit": settings_audit}
        for home, names in bellkit._EXPORTS.items():
            for name in names:
                assert getattr(bellkit, name) is getattr(homes[home], name)
        assert sorted(bellkit.__all__) == sorted(["__version__", *bellkit._HOME])
        assert set(bellkit.__all__) <= set(dir(bellkit))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'pvalue_completee'"):
            bellkit.pvalue_completee
