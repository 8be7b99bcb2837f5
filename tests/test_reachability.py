"""The reachability ratchet: code that only tests reach fails tier-1."""

import importlib.util
import os
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "scripts", "check_reachability.py")


def _run(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True, text=True)


def test_repo_is_clean():
    proc = _run()
    assert proc.returncode == 0, proc.stderr


#: Lines in ``src/repro`` kept only because the frozen ``bench/`` reads them.
#: The pin may only go down, and it follows every cut.
BENCH_COMPAT_MARK = "# bench compat: item 1 deletes"
BENCH_COMPAT_LINES = 31


def test_bench_compat_lines_only_shrink():
    count = 0
    for directory, _, files in os.walk(os.path.join(REPO, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    count += sum(BENCH_COMPAT_MARK in line for line in handle)
    assert count <= BENCH_COMPAT_LINES, f"{count} bench compat lines; add none"
    assert count == BENCH_COMPAT_LINES, f"{count} bench compat lines; lower the pin to {count}"


def test_allowlist_only_shrinks_and_says_why():
    spec = importlib.util.spec_from_file_location("check_reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert len(module.ALLOWLIST) <= 10
    assert all(reason.strip() for reason in module.ALLOWLIST.values())


def _write(root, path, source):
    full = root / path
    full.parent.mkdir(parents=True, exist_ok=True)
    full.write_text(textwrap.dedent(source))


def test_flags_orphans_and_test_only_exports_but_not_getattr_use(tmp_path):
    _write(tmp_path, "pkg/__init__.py", """
        from .mod import LIMIT, Thing, orphan, used
        __all__ = ["LIMIT", "Thing", "orphan", "used"]
    """)
    _write(tmp_path, "pkg/mod.py", """
        LIMIT = 3

        def orphan():
            return 1

        def used():
            return Thing().dynamic()

        class Thing:
            def orphan_method(self):
                return self.orphan_method()

            def dynamic(self):
                return getattr(self, "by_name")()

            def by_name(self):
                return 1
    """)
    _write(tmp_path, "app/main.py", """
        from pkg import used

        used()
    """)
    _write(tmp_path, "app/tests/test_pkg.py", """
        from pkg import LIMIT, orphan
        from pkg.mod import Thing

        def test_it():
            assert orphan() and Thing().orphan_method() and LIMIT
    """)
    proc = _run("--package", str(tmp_path / "pkg"), str(tmp_path / "app"))
    assert proc.returncode == 1
    flagged = [line for line in proc.stderr.splitlines() if "referenced only" in line or "exported" in line]
    assert any("mod.py::orphan:" in line for line in flagged), proc.stderr
    assert any("mod.py::Thing.orphan_method:" in line for line in flagged), proc.stderr
    assert any("'LIMIT' is exported" in line for line in flagged), proc.stderr
    assert not any("by_name" in line for line in flagged), proc.stderr
    # orphan's export line is flagged too; nothing else is.
    assert len(flagged) == 4, proc.stderr
