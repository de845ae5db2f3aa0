"""The docs CI check stays green and actually detects regressions."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
CHECKER = REPO_ROOT / "tools" / "check_docs.py"


def run_checker():
    return subprocess.run(
        [sys.executable, str(CHECKER)],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def load_checker():
    sys.path.insert(0, str(CHECKER.parent))
    try:
        import check_docs
    finally:
        sys.path.pop(0)
    return check_docs


class TestDocsCheck:
    def test_repository_passes(self):
        result = run_checker()
        assert result.returncode == 0, result.stdout + result.stderr
        assert "docs OK" in result.stdout

    def test_design_doc_exists_and_is_referenced(self):
        design = REPO_ROOT / "DESIGN.md"
        assert design.exists()
        # simulator.py's long-standing reference must resolve.
        simulator = (REPO_ROOT / "src/repro/sim/simulator.py").read_text()
        assert "DESIGN.md" in simulator
        readme = (REPO_ROOT / "README.md").read_text()
        assert "DESIGN.md" in readme

    def test_code_block_extraction(self):
        check_docs = load_checker()
        text = "intro\n```python\nimport os\n```\n```bash\nls\n```\n"
        blocks = list(check_docs.python_blocks(text))
        assert len(blocks) == 1
        line, code = blocks[0]
        assert line == 3 and code == "import os\n"

    def test_readme_and_design_have_python_blocks(self):
        check_docs = load_checker()
        for name in ("README.md", "DESIGN.md"):
            text = (REPO_ROOT / name).read_text()
            assert list(check_docs.python_blocks(text)), f"{name} has no python blocks"

    def test_undocumented_env_knob_fails(self, tmp_path):
        check_docs = load_checker()
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "knobs.py").write_text(
            'A = "REPRO_PLANTED"\nB = "REPRO_BENCH_SCALE"\n'
        )
        (tmp_path / "README.md").write_text("`REPRO_BENCH_*`, `REPRO_STALE`\n")
        assert check_docs.check_env_knobs(tmp_path) == [
            "REPRO_PLANTED: read in code but not in README.md or DESIGN.md",
            "REPRO_STALE: documented but read nowhere",
        ]

    def test_example_with_a_removed_import_fails(self, tmp_path):
        check_docs = load_checker()
        (tmp_path / "examples").mkdir()
        (tmp_path / "examples" / "fine.py").write_text("import os\n")
        (tmp_path / "examples" / "stale.py").write_text(
            "import os\n\n\ndef main():\n"
            "    from repro.sim import no_such_api\n"
        )
        (finding,) = check_docs.check_examples(tmp_path)
        assert finding.startswith("examples/stale.py:5: ")
        assert "no_such_api" in finding
