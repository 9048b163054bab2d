"""Unit tests for the determinism/error-hygiene AST lint."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis.lint import LintFinding, lint_paths, lint_source, main

REPO_ROOT = Path(__file__).resolve().parents[2]
LINT_SCRIPT = REPO_ROOT / "scripts" / "lint_repro.py"


def rules(source: str, path: str = "module.py") -> list[str]:
    return [f.rule for f in lint_source(source, path)]


class TestWallClock:
    def test_time_time(self):
        assert rules("import time\nt = time.time()\n") == ["wall-clock"]

    def test_aliased_module(self):
        assert rules("import time as t\nx = t.perf_counter()\n") == [
            "wall-clock"
        ]

    def test_from_import(self):
        assert rules("from time import monotonic\nx = monotonic()\n") == [
            "wall-clock"
        ]

    def test_ns_variants(self):
        assert rules("import time\nx = time.monotonic_ns()\n") == [
            "wall-clock"
        ]

    def test_datetime_now(self):
        src = "import datetime\nx = datetime.datetime.now()\n"
        assert rules(src) == ["wall-clock"]

    def test_time_sleep_is_fine(self):
        assert rules("import time\ntime.sleep(0)\n") == []

    def test_attribute_access_without_call_is_fine(self):
        # Only calls read the clock; mentioning the name does not.
        assert rules("import time\nf = time.time\n") == []


class TestRandomness:
    def test_global_random(self):
        assert rules("import random\nx = random.random()\n") == [
            "global-random"
        ]

    def test_numpy_global(self):
        assert rules("import numpy as np\nx = np.random.rand(3)\n") == [
            "global-random"
        ]

    def test_system_random_ok(self):
        assert rules("import random\nr = random.SystemRandom()\n") == []

    def test_rng_construction_outside_determinism(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert rules(src) == ["rng-construction"]

    def test_random_random_class(self):
        assert rules("import random\nr = random.Random(7)\n") == [
            "rng-construction"
        ]

    def test_determinism_module_is_blessed(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert lint_source(src, "src/repro/determinism.py") == []

    def test_seed_machinery_ok(self):
        src = "import numpy as np\nss = np.random.SeedSequence(1)\n"
        assert rules(src) == []


class TestRaisesAndShadows:
    def test_generic_raise(self):
        assert rules("raise Exception('boom')\n") == ["generic-raise"]

    def test_bare_generic_raise(self):
        assert rules("raise BaseException\n") == ["generic-raise"]

    def test_specific_raise_ok(self):
        assert rules("raise ValueError('x')\n") == []

    def test_runtime_error_ok(self):
        # Tests rely on RuntimeError in a few spots; it stays legal.
        assert rules("raise RuntimeError('x')\n") == []

    def test_builtin_shadow_class(self):
        assert rules("class MemoryError_:\n    pass\n") == ["builtin-shadow"]

    def test_builtin_shadow_function(self):
        assert rules("def KeyError_():\n    pass\n") == ["builtin-shadow"]

    def test_alias_assignment_is_not_flagged(self):
        # An alias such as `MemoryError_ = SimMemoryError` is an
        # assignment, not a definition.
        assert rules("class SimMemoryError(Exception):\n    pass\n"
                     "MemoryError_ = SimMemoryError\n") == []


class TestPteLoop:
    HOT = "src/repro/mem/cow.py"

    def test_for_over_present_indices_in_hot_module(self):
        src = "for i in leaf.present_indices():\n    pass\n"
        assert rules(src, self.HOT) == ["pte-loop"]

    def test_for_over_entries_in_hot_module(self):
        src = "for pte in leaf.entries():\n    pass\n"
        assert rules(src, self.HOT) == ["pte-loop"]

    def test_enumerate_is_unwrapped(self):
        src = "for i, f in enumerate(leaf.referencing_frames()):\n    pass\n"
        assert rules(src, self.HOT) == ["pte-loop"]

    def test_range_entries_per_table(self):
        src = "for i in range(ENTRIES_PER_TABLE):\n    pass\n"
        assert rules(src, self.HOT) == ["pte-loop"]

    def test_comprehension_is_flagged(self):
        src = "x = [leaf.get(i) for i in leaf.present_indices()]\n"
        assert rules(src, self.HOT) == ["pte-loop"]

    def test_every_hot_module_suffix_matches(self):
        from repro.analysis.lint import _PTE_HOT_MODULES

        src = "for i in leaf.present_indices():\n    pass\n"
        for suffix in _PTE_HOT_MODULES:
            assert rules(src, f"src/repro/{suffix}") == ["pte-loop"], suffix

    def test_cold_module_is_not_flagged(self):
        src = "for i in leaf.present_indices():\n    pass\n"
        assert rules(src, "src/repro/kvs/store.py") == []
        assert rules(src, "tests/mem/test_x.py") == []

    def test_ordinary_loops_are_fine_in_hot_modules(self):
        src = "for vma in mm.vmas:\n    pass\nfor i in range(8):\n    pass\n"
        assert rules(src, self.HOT) == []

    def test_allow_pragma_suppresses(self):
        src = (
            "for i in leaf.present_indices():  # lint: allow(pte-loop)\n"
            "    pass\n"
        )
        assert rules(src, self.HOT) == []

    def test_comprehension_pragma_on_iter_line(self):
        src = (
            "x = [\n"
            "    leaf.get(i)\n"
            "    for i in leaf.present_indices()  # lint: allow(pte-loop)\n"
            "]\n"
        )
        assert rules(src, self.HOT) == []


class TestPragmaAndOutput:
    def test_allow_pragma_suppresses(self):
        src = "import time\nx = time.time()  # lint: allow(wall-clock)\n"
        assert lint_source(src) == []

    def test_pragma_is_rule_specific(self):
        src = "import time\nx = time.time()  # lint: allow(global-random)\n"
        assert rules(src) == ["wall-clock"]

    def test_finding_format(self):
        finding = LintFinding("a.py", 3, 7, "wall-clock", "msg")
        assert finding.format() == "a.py:3:7: [wall-clock] msg"

    def test_syntax_error_is_reported_not_raised(self):
        assert rules("def broken(:\n") == ["syntax-error"]

    def test_findings_sorted_by_location(self):
        src = (
            "import time, random\n"
            "b = random.random()\n"
            "a = time.time()\n"
        )
        findings = lint_source(src)
        assert [f.line for f in findings] == [2, 3]


class TestUnusedImport:
    def test_unused_import_is_flagged(self):
        assert rules("import os\n") == ["unused-import"]

    def test_unused_from_import_names_the_binding(self):
        (finding,) = lint_source("from typing import Optional as Opt\n")
        assert finding.rule == "unused-import"
        assert "'Opt'" in finding.message

    def test_function_scope_import_is_flagged(self):
        assert rules("def f():\n    import os\n    return 1\n") == [
            "unused-import"
        ]

    def test_used_imports_are_fine(self):
        src = (
            "import os.path\n"
            "from typing import Callable\n"
            "x = os.path.join('a', 'b')\n"
            "def f(g: Callable) -> None:\n"
            "    del g\n"
        )
        assert rules(src) == []

    def test_future_import_is_exempt(self):
        assert rules("from __future__ import annotations\n") == []

    def test_names_in_dunder_all_are_exempt(self):
        src = "from typing import Callable\n__all__ = ['Callable']\n"
        assert rules(src) == []

    def test_noqa_marks_a_re_export(self):
        assert rules("import os  # noqa: F401\n") == []
        src = (
            "from typing import (  # noqa: F401 - re-exported\n"
            "    Callable,\n"
            "    Optional,\n"
            ")\n"
        )
        assert rules(src) == []

    def test_other_noqa_codes_do_not_exempt(self):
        assert rules("import os  # noqa: E402\n") == ["unused-import"]

    def test_string_annotations_count_as_use(self):
        src = (
            "from typing import Optional\n"
            "from repro.kvs.engine import KvEngine\n"
            "def f(engine: 'KvEngine') -> 'Optional[int]':\n"
            "    x: 'Optional[KvEngine]' = engine\n"
            "    return None\n"
        )
        assert rules(src) == []

    def test_plain_strings_are_not_a_use(self):
        assert rules("import os\nx = 'os'\n") == ["unused-import"]


class TestCli:
    def test_no_args_usage_error(self, capsys):
        assert main([]) == 2

    def test_clean_file(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert main([str(target)]) == 0

    def test_dirty_fixture_exits_nonzero(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nstamp = time.time()\n")
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "wall-clock" in out and "dirty.py:2" in out

    def test_directory_recursion(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text(
            "import random\nrandom.seed(1)\n"
        )
        findings = lint_paths([tmp_path])
        assert [f.rule for f in findings] == ["global-random"]

    def test_script_entry_point_on_dirty_file(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nstamp = time.time()\n")
        proc = subprocess.run(
            [sys.executable, str(LINT_SCRIPT), str(target)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "wall-clock" in proc.stdout


class TestAliasEscapes:
    """Regressions: calls that used to slip past the alias resolution."""

    def test_star_import_time(self):
        assert rules("from time import *\nt = perf_counter()\n") == [
            "wall-clock"
        ]

    def test_star_import_random(self):
        assert rules("from random import *\nshuffle([1, 2])\n") == [
            "global-random"
        ]

    def test_star_import_random_constructor(self):
        assert rules("from random import *\nr = Random(3)\n") == [
            "rng-construction"
        ]

    def test_star_import_system_random_stays_ok(self):
        assert rules("from random import *\ns = SystemRandom()\n") == []

    def test_star_import_datetime(self):
        assert rules("from datetime import *\nd = datetime.now()\n") == [
            "wall-clock"
        ]

    def test_star_import_unknown_module_is_ignored(self):
        assert rules("from os.path import *\njoin('a', 'b')\n") == []

    def test_call_before_import(self):
        # Late imports must still resolve for bodies defined above them.
        src = "def f():\n    return time.time()\nimport time\n"
        assert rules(src) == ["wall-clock"]

    def test_function_scope_import(self):
        src = (
            "def f():\n"
            "    import time\n"
            "    return time.perf_counter()\n"
        )
        assert rules(src) == ["wall-clock"]

    def test_assign_rebind_module(self):
        assert rules("import time\nt = time\nx = t.monotonic()\n") == [
            "wall-clock"
        ]

    def test_assign_rebind_function(self):
        assert rules("import time\nnow = time.time\nnow()\n") == [
            "wall-clock"
        ]

    def test_rebind_chain(self):
        src = "import random\nr = random\nq = r\nq.randint(0, 1)\n"
        assert rules(src) == ["global-random"]

    def test_rebind_to_unrelated_object_drops_alias(self):
        # `now` stops pointing at the clock; calling it is fine.
        src = (
            "import time\n"
            "now = time.time\n"
            "now = 7\n"
            "now()\n"
        )
        assert rules(src) == []


class TestHookLeak:
    LEAK = (
        "from repro.analysis import hooks\n"
        "hooks.ACCESS_HOOKS.append(print)\n"
    )

    def test_append_without_remove(self):
        assert rules(self.LEAK) == ["hook-leak"]

    def test_paired_remove_elsewhere_in_module(self):
        src = (
            "from repro.analysis import hooks\n"
            "def install(fn):\n"
            "    hooks.LOCK_HOOKS.append(fn)\n"
            "def uninstall(fn):\n"
            "    hooks.LOCK_HOOKS.remove(fn)\n"
        )
        assert rules(src) == []

    def test_remove_on_other_collector_does_not_pair(self):
        src = (
            "from repro.analysis import hooks\n"
            "hooks.EDGE_HOOKS.append(print)\n"
            "hooks.LOCK_HOOKS.remove(print)\n"
        )
        assert rules(src) == ["hook-leak"]

    def test_from_imported_collector(self):
        src = (
            "from repro.analysis.hooks import MM_HOOKS\n"
            "MM_HOOKS.append(print)\n"
        )
        assert rules(src) == ["hook-leak"]

    def test_test_files_are_exempt(self):
        assert lint_source(self.LEAK, "tests/analysis/test_x.py") == []
        assert lint_source(self.LEAK, "test_whatever.py") == []
        assert lint_source(self.LEAK, "tests/conftest.py") == []

    def test_pragma_suppresses(self):
        src = (
            "from repro.analysis import hooks\n"
            "hooks.EDGE_HOOKS.append(print)  # lint: allow(hook-leak)\n"
        )
        assert rules(src) == []

    def test_append_on_ordinary_list_is_fine(self):
        assert rules("items = []\nitems.append(1)\n") == []


class TestJsonFormat:
    def test_json_output_shape(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\nstamp = time.time()\n")
        assert main(["--format", "json", str(target)]) == 1
        import json

        report = json.loads(capsys.readouterr().out)
        assert report["count"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "wall-clock"
        assert finding["line"] == 2

    def test_json_clean_tree(self, capsys):
        assert main(["--format", "json", str(REPO_ROOT / "src" / "repro")]) == 0
        import json

        report = json.loads(capsys.readouterr().out)
        assert report == {"count": 0, "findings": []}

    def test_unknown_format_is_usage_error(self, capsys):
        assert main(["--format", "yaml", "x.py"]) == 2

    def test_script_json_default_path(self):
        proc = subprocess.run(
            [sys.executable, str(LINT_SCRIPT), "--format", "json"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        import json

        assert json.loads(proc.stdout)["count"] == 0
