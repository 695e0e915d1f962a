"""Documentation sync checks: the README must track the actual CLI.

A snapshot-style test: the subcommands and key flags that
``python -m repro --help`` (and the subparsers) advertise must all be
documented in README.md, so the CLI reference cannot silently drift.
"""

import os
import re

import pytest

from repro.cli import main
from repro.image.engine import METHODS
from repro.mc.config import BACKENDS
from repro.systems import models

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


@pytest.fixture(scope="module")
def readme() -> str:
    with open(README, "r", encoding="utf-8") as handle:
        return handle.read()


def help_text(capsys, argv) -> str:
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 0
    return capsys.readouterr().out


class TestReadmeExists:
    def test_readme_present(self, readme):
        assert "Image Computation for Quantum Transition Systems" in readme


class TestCliReferenceInSync:
    def test_every_subcommand_documented(self, capsys, readme):
        text = help_text(capsys, ["--help"])
        match = re.search(r"\{([a-z0-9,]+)\}", text)
        assert match, "no subcommand list in --help output"
        subcommands = match.group(1).split(",")
        assert set(subcommands) == {"image", "reach", "check", "invariant",
                                    "crosscheck", "sweep", "cache",
                                    "table1", "table2", "smoke"}
        for name in subcommands:
            assert f"`{name}`" in readme, \
                f"subcommand {name!r} missing from the README CLI reference"

    def test_image_flags_documented(self, capsys, readme):
        text = help_text(capsys, ["image", "--help"])
        for flag in ("--size", "--method", "--backend", "--k1", "--k2",
                     "--direction", "--bound"):
            assert flag in text
            assert flag.lstrip("-").replace("-", "") in \
                readme.replace("-", ""), \
                f"flag {flag} missing from README"
        # every contraction is one kernel call: no strategy flags
        for gone in ("--strategy", "--slice-depth"):
            assert gone not in text
            assert gone not in readme

    def test_check_flags_documented(self, capsys, readme):
        text = help_text(capsys, ["check", "--help"])
        for flag in ("--spec", "--max-iterations", "--backend",
                     "--direction", "--bound"):
            assert flag in text
            assert flag.lstrip("-").replace("-", "") in \
                readme.replace("-", ""), \
                f"flag {flag} missing from README"

    def test_reach_flags_documented(self, capsys, readme):
        text = help_text(capsys, ["reach", "--help"])
        for flag in ("--direction", "--bound", "--store"):
            assert flag in text
            assert flag.lstrip("-").replace("-", "") in \
                readme.replace("-", ""), \
                f"flag {flag} missing from README"
        # one fixpoint schedule and in-process slicing: neither the
        # schedule nor a worker-pool width is a flag any more
        for gone in ("--frontier", "--driver", "--jobs"):
            assert gone not in text
        assert "--frontier" not in readme
        assert "--driver" not in readme

    def test_cache_subcommands_documented(self, capsys, readme):
        text = help_text(capsys, ["cache", "--help"])
        for verb in ("ls", "stats", "gc", "export", "import"):
            assert verb in text
            assert f"cache {verb}" in readme, \
                f"'repro cache {verb}' missing from README"
        gc_text = help_text(capsys, ["cache", "gc", "--help"])
        assert "--max-bytes" in gc_text
        assert "--max-bytes" in readme

    def test_sweep_flags_documented(self, capsys, readme):
        text = help_text(capsys, ["sweep", "--help"])
        for flag in ("--spec", "--models", "--sizes", "--methods",
                     "--backends", "--directions",
                     "--bounds", "--check", "--jobs",
                     "--out", "--no-resume", "--no-warm-start"):
            assert flag in text
            assert flag in readme, f"flag {flag} missing from README"

    def test_choices_documented(self, readme):
        from repro.image.engine import DIRECTIONS
        for method in METHODS:
            assert method in readme
        for backend in BACKENDS:
            assert backend in readme
        for direction in DIRECTIONS:
            assert direction in readme

    def test_models_documented(self, readme):
        # every CLI-selectable model appears in the README
        from repro.cli import _MODELS
        for model in _MODELS:
            assert f"`{model}`" in readme, \
                f"model {model!r} missing from README"
        # and the registry backs them all
        assert set(_MODELS) <= set(models.MODEL_BUILDERS)


class TestQuickstartCommands:
    def test_quickstart_commands_parse(self, readme):
        """Every `python -m repro ...` line in the README must at least
        survive argument parsing (run with --help appended where the
        run itself would be slow)."""
        commands = re.findall(r"python -m repro ([^\n\\]*)", readme)
        assert commands, "README quickstart lost its CLI examples"
        import shlex
        from repro.cli import main as cli_main
        for tail in commands:
            argv = shlex.split(tail.strip())
            if not argv or argv[0].startswith("<"):
                continue
            # parse-only probe: swap in --help and expect a clean exit
            with pytest.raises(SystemExit) as excinfo:
                cli_main([argv[0], "--help"])
            assert excinfo.value.code == 0, argv
