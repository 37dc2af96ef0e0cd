"""Tests for the numlint static-analysis suite.

Every pass is exercised against known-bad and known-good fixture snippets
under ``tests/numlint_fixtures/``; the suite ends with a self-check
asserting the repository itself is clean against the committed baseline,
plus CLI and baseline round-trip tests.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from tools.numlint import (
    FileContext,
    all_passes,
    get_pass,
    load_baseline,
    run_paths,
    save_baseline,
    split_findings,
)
from tools.numlint.core import run_passes_on_context
from tools.numlint.sarif import build_sarif

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "numlint_fixtures"

#: Role-appropriate synthetic paths: dtype hygiene only applies to hot-path
#: modules and nondeterminism to library/experiment code, so fixtures are
#: lifted into the relevant part of the tree.
LIBRARY_PATH = "src/repro/sampling/fixture.py"
HOT_PATH = "src/repro/gp/fixture.py"
EXPERIMENT_PATH = "src/repro/experiments/fixture.py"
RUNTIME_PATH = "src/repro/runtime/fixture.py"
TEST_PATH = "tests/fixture.py"


def lint_fixture(
    filename: str, pass_name: str, relpath: str = LIBRARY_PATH
) -> list:
    source = (FIXTURES / filename).read_text(encoding="utf-8")
    ctx = FileContext(relpath, source)
    return run_passes_on_context(ctx, [get_pass(pass_name)])


def codes(findings) -> list[str]:
    return [f.code for f in findings]


class TestRngDiscipline:
    def test_fires_on_bad(self):
        found = codes(lint_fixture("rng_bad.py", "rng-discipline"))
        assert found.count("NL001") == 6
        assert found.count("NL002") == 2

    def test_silent_on_good(self):
        assert lint_fixture("rng_good.py", "rng-discipline") == []

    def test_unseeded_allowed_in_tests(self):
        found = codes(
            lint_fixture("rng_bad.py", "rng-discipline", relpath=TEST_PATH)
        )
        # legacy global-state calls stay banned even in tests, but the
        # bare default_rng() findings disappear
        assert "NL002" not in found
        assert "NL001" in found


class TestLinalgSafety:
    def test_fires_on_bad(self):
        found = codes(lint_fixture("linalg_bad.py", "linalg-safety"))
        assert found.count("NL101") == 3
        assert found.count("NL102") == 2

    def test_silent_on_good(self):
        assert lint_fixture("linalg_good.py", "linalg-safety") == []

    def test_tests_are_exempt(self):
        assert (
            lint_fixture("linalg_bad.py", "linalg-safety", relpath=TEST_PATH)
            == []
        )

    def test_flags_the_original_embedding_bug(self):
        ctx = FileContext(
            "src/repro/embedding/fixture.py",
            "import numpy as np\n"
            "def pinv(A):\n"
            "    return np.linalg.solve(A.T @ A, A.T)\n",
        )
        found = run_passes_on_context(ctx, [get_pass("linalg-safety")])
        assert codes(found) == ["NL102"]


class TestOutBuffer:
    def test_fires_on_bad(self):
        found = codes(lint_fixture("outbuf_bad.py", "out-buffer"))
        assert "NL201" in found
        assert "NL202" in found
        assert "NL203" in found
        assert "NL204" in found

    def test_silent_on_good(self):
        assert lint_fixture("outbuf_good.py", "out-buffer") == []

    def test_repo_kernels_satisfy_contract(self):
        # the real hot-path kernels are the reference implementations of
        # the convention; they must never be flagged
        path = REPO_ROOT / "src" / "repro" / "kernels" / "stationary.py"
        ctx = FileContext.from_path(path, REPO_ROOT)
        assert run_passes_on_context(ctx, [get_pass("out-buffer")]) == []


class TestDtypeHygiene:
    def test_fires_on_bad_in_hot_path(self):
        found = codes(lint_fixture("dtype_bad.py", "dtype-hygiene", HOT_PATH))
        assert found.count("NL301") == 3
        assert found.count("NL302") == 1

    def test_silent_on_good_in_hot_path(self):
        assert lint_fixture("dtype_good.py", "dtype-hygiene", HOT_PATH) == []

    def test_out_of_scope_module_not_flagged(self):
        assert lint_fixture("dtype_bad.py", "dtype-hygiene", LIBRARY_PATH) == []


class TestNondeterminism:
    def test_fires_on_bad(self):
        found = codes(
            lint_fixture("nondet_bad.py", "nondeterminism", EXPERIMENT_PATH)
        )
        assert found.count("NL401") == 1
        assert found.count("NL402") == 3
        assert found.count("NL403") == 2

    def test_silent_on_good(self):
        assert (
            lint_fixture("nondet_good.py", "nondeterminism", EXPERIMENT_PATH)
            == []
        )

    def test_tests_are_exempt(self):
        assert (
            lint_fixture("nondet_bad.py", "nondeterminism", relpath=TEST_PATH)
            == []
        )


class TestCholeskyDiscipline:
    def test_nl103_fires_in_gp_modules(self):
        found = codes(lint_fixture("cholesky_bad.py", "linalg-safety", HOT_PATH))
        assert found == ["NL103", "NL103"]

    def test_nl103_scoped_to_gp_path(self):
        assert (
            lint_fixture("cholesky_bad.py", "linalg-safety", LIBRARY_PATH) == []
        )

    def test_jittered_helper_and_suppression_pass(self):
        assert lint_fixture("cholesky_good.py", "linalg-safety", HOT_PATH) == []

    def test_tests_are_exempt(self):
        assert (
            lint_fixture("cholesky_bad.py", "linalg-safety", relpath=TEST_PATH)
            == []
        )


class TestShapeContracts:
    def test_fires_on_bad(self):
        found = codes(lint_fixture("shapes_bad.py", "shape-contracts"))
        assert found == [
            "NL501",  # non-literal spec
            "NL501",  # malformed spec
            "NL502",  # name missing from the signature
            "NL510",  # matmul inner-dimension conflict
            "NL511",  # return shape cannot unify
            "NL520",  # interprocedural call-site mismatch
        ]

    def test_silent_on_good(self):
        assert lint_fixture("shapes_good.py", "shape-contracts") == []

    def test_tests_are_exempt(self):
        assert (
            lint_fixture("shapes_bad.py", "shape-contracts", relpath=TEST_PATH)
            == []
        )

    def test_cross_module_mismatch(self, tmp_path):
        """NL520 across files: the callee's contract lives in another module."""
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        (pkg / "callee.py").write_text(
            "from repro.utils.contracts import shape_contract\n"
            "\n"
            "@shape_contract('X: (n, d), A: (D, d) -> (n, D)')\n"
            "def reverse_map(X, A):\n"
            "    return X @ A.T\n",
            encoding="utf-8",
        )
        (pkg / "caller.py").write_text(
            "from pkg.callee import reverse_map\n"
            "from repro.utils.contracts import shape_contract\n"
            "\n"
            "@shape_contract('X: (n, d), A: (D, d)')\n"
            "def bad(X, A):\n"
            "    return reverse_map(X, A.T)\n"
            "\n"
            "@shape_contract('X: (n, d), A: (D, d)')\n"
            "def good(X, A):\n"
            "    return reverse_map(X, A)\n",
            encoding="utf-8",
        )
        findings = run_paths(["src"], tmp_path, [get_pass("shape-contracts")])
        assert [(f.code, Path(f.relpath).name) for f in findings] == [
            ("NL520", "caller.py")
        ]


class TestContractRollout:
    def test_fires_on_uncontracted_public_array_function(self):
        found = codes(lint_fixture("rollout_bad.py", "contract-rollout"))
        assert found == ["NL530", "NL530"]

    def test_silent_on_good(self):
        assert lint_fixture("rollout_good.py", "contract-rollout") == []

    def test_uncontracted_modules_are_not_in_scope(self):
        # a module that never imports shape_contract has not opted in
        ctx = FileContext(
            LIBRARY_PATH,
            "import numpy as np\n"
            "def f(X: np.ndarray) -> np.ndarray:\n"
            "    return X\n",
        )
        assert run_passes_on_context(ctx, [get_pass("contract-rollout")]) == []

    def test_tests_are_exempt(self):
        assert (
            lint_fixture("rollout_bad.py", "contract-rollout", relpath=TEST_PATH)
            == []
        )

    def test_runtime_modules_are_contracted_by_path(self):
        # repro/runtime/ is opted in unconditionally: a public array
        # function there needs a contract even without the import
        source = (
            "import numpy as np\n"
            "def f(X: np.ndarray) -> np.ndarray:\n"
            "    return X\n"
        )
        ctx = FileContext("src/repro/runtime/fixture.py", source)
        found = run_passes_on_context(ctx, [get_pass("contract-rollout")])
        assert codes(found) == ["NL530"]
        # the same module outside the opted-in path is not in scope
        ctx = FileContext(LIBRARY_PATH, source)
        assert run_passes_on_context(ctx, [get_pass("contract-rollout")]) == []


class TestConcurrencySafety:
    def test_fires_on_bad(self):
        found = codes(lint_fixture("concurrency_bad.py", "concurrency-safety"))
        assert found.count("NL601") == 4
        assert found.count("NL602") == 2
        assert found.count("NL603") == 2
        assert found.count("NL604") == 4
        assert found.count("NL605") == 1
        assert len(found) == 13

    def test_silent_on_good(self):
        assert lint_fixture("concurrency_good.py", "concurrency-safety") == []

    def test_nl604_exempt_in_tests(self):
        found = codes(
            lint_fixture(
                "concurrency_bad.py", "concurrency-safety", relpath=TEST_PATH
            )
        )
        # blocking I/O inside spans is fine in tests; the race-shaped
        # codes stay banned everywhere (stress tests submit callables too)
        assert "NL604" not in found
        assert "NL601" in found and "NL603" in found

    def test_bound_method_submission_resolves(self):
        # the shared-instance findings anchor to the method body, proving
        # `self.method` submissions resolve through the enclosing class
        found = lint_fixture("concurrency_bad.py", "concurrency-safety")
        shared_self = [
            f for f in found if "'self._work'" in f.message
        ]
        assert {f.code for f in shared_self} == {"NL601", "NL602"}

    def test_thread_target_is_a_submission(self):
        # `threading.Thread(target=self.method)` runs the method on another
        # thread: the racy target fires, the one writing only through its
        # argument stays clean
        found = lint_fixture("concurrency_thread.py", "concurrency-safety")
        assert codes(found) == ["NL601"]
        assert "'self._racy'" in found[0].message

    def test_repo_runtime_stack_is_clean(self):
        # the hardened shared classes are the reference implementations of
        # the @thread_shared contract; they must never be flagged
        for rel in (
            "src/repro/runtime/cache.py",
            "src/repro/runtime/ledger.py",
            "src/repro/runtime/broker.py",
            "src/repro/telemetry/metrics.py",
            "src/repro/telemetry/trace.py",
        ):
            ctx = FileContext.from_path(REPO_ROOT / rel, REPO_ROOT)
            found = run_passes_on_context(
                ctx, [get_pass("concurrency-safety")]
            )
            assert found == [], [f.render() for f in found]


class TestDeterminism:
    def test_fires_on_bad(self):
        found = codes(
            lint_fixture("determinism_bad.py", "determinism", RUNTIME_PATH)
        )
        assert found.count("NL701") == 2
        assert found.count("NL702") == 1
        assert found.count("NL703") == 3
        assert found.count("NL704") == 1
        assert found.count("NL705") == 1
        assert found.count("NL706") == 2
        assert len(found) == 10

    def test_silent_on_good(self):
        assert (
            lint_fixture("determinism_good.py", "determinism", RUNTIME_PATH)
            == []
        )

    def test_silent_in_tests(self):
        # replay guarantees are a library property; test code may clock and
        # draw freely
        assert (
            lint_fixture("determinism_bad.py", "determinism", TEST_PATH) == []
        )

    def test_nl706_scoped_to_persistence_modules(self):
        # swallowed handlers are only a replay hazard on persistence paths;
        # the same code outside repro.runtime/repro.telemetry is quiet
        found = codes(
            lint_fixture("determinism_bad.py", "determinism", LIBRARY_PATH)
        )
        assert "NL706" not in found
        # the JSONL module behind ledgers, shards and traces is in scope
        found = codes(
            lint_fixture(
                "determinism_bad.py", "determinism", "src/repro/utils/jsonl.py"
            )
        )
        assert found.count("NL706") == 2

    def test_interprocedural_witness_chain(self):
        # the cache-key finding names the helper chain down to time.time(),
        # proving the effect came through the call graph, not the body
        found = lint_fixture(
            "determinism_bad.py", "determinism", RUNTIME_PATH
        )
        nl701 = [f for f in found if f.code == "NL701"]
        assert any("time.time()" in f.message for f in nl701)
        assert any("_salt" in f.message for f in nl701)

    def test_repo_runtime_stack_is_clean(self):
        # the ledger/cache/broker/replay stack is what the pass protects;
        # it must itself satisfy every NL7xx rule
        determinism = get_pass("determinism")
        for rel in (
            "src/repro/runtime/cache.py",
            "src/repro/runtime/ledger.py",
            "src/repro/runtime/broker.py",
            "src/repro/runtime/replay.py",
            "src/repro/utils/jsonl.py",
            "src/repro/runtime/objective.py",
        ):
            ctx = FileContext.from_path(REPO_ROOT / rel, REPO_ROOT)
            found = run_passes_on_context(ctx, [determinism])
            assert found == [], [f.render() for f in found]


class TestSarif:
    def test_document_structure(self):
        findings = lint_fixture(
            "determinism_bad.py", "determinism", RUNTIME_PATH
        )
        doc = build_sarif(findings, all_passes())
        assert doc["version"] == "2.1.0"
        assert doc["$schema"].endswith("sarif-2.1.0.json")
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "numlint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert "NL000" in rule_ids and "NL701" in rule_ids
        assert len(run["results"]) == len(findings)
        for result, finding in zip(run["results"], findings):
            assert result["ruleId"] == finding.code
            assert result["ruleId"] in rule_ids
            assert rule_ids[result["ruleIndex"]] == result["ruleId"]
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"] == finding.relpath
            assert loc["region"]["startLine"] == finding.line
            assert loc["region"]["startColumn"] == finding.col + 1
            assert result["partialFingerprints"]["numlint/v1"]

    def test_empty_run_still_lists_rules(self):
        doc = build_sarif([], all_passes())
        (run,) = doc["runs"]
        assert run["results"] == []
        assert len(run["tool"]["driver"]["rules"]) > 30


class TestSuppression:
    def test_inline_disable(self):
        found = codes(lint_fixture("suppressed.py", "linalg-safety"))
        # the targeted and blanket disables silence their lines; the
        # wrong-code disable does not
        assert found == ["NL101"]


class TestFramework:
    def test_all_passes_registered(self):
        names = {p.name for p in all_passes()}
        assert names == {
            "rng-discipline",
            "linalg-safety",
            "out-buffer",
            "dtype-hygiene",
            "nondeterminism",
            "shape-contracts",
            "contract-rollout",
            "concurrency-safety",
            "determinism",
        }

    def test_syntax_error_reported_not_raised(self):
        ctx = FileContext(LIBRARY_PATH, "def broken(:\n")
        found = run_passes_on_context(ctx, all_passes())
        assert codes(found) == ["NL000"]

    def test_alias_resolution(self):
        ctx = FileContext(
            LIBRARY_PATH,
            "import numpy.linalg as la\n"
            "def f(K):\n"
            "    return la.inv(K)\n",
        )
        found = run_passes_on_context(ctx, [get_pass("linalg-safety")])
        assert codes(found) == ["NL101"]


class TestBaseline:
    BAD = (
        "import numpy as np\n"
        "def f(K):\n"
        "    return np.linalg.inv(K)\n"
    )

    def _write_tree(self, root: Path, extra_line: bool = False) -> Path:
        src = root / "src" / "pkg"
        src.mkdir(parents=True, exist_ok=True)
        body = self.BAD
        if extra_line:
            body += "def g(K):\n    return np.linalg.inv(K + 1)\n"
        (src / "mod.py").write_text(body, encoding="utf-8")
        return root

    def test_round_trip_and_new_finding_detection(self, tmp_path):
        root = self._write_tree(tmp_path)
        baseline_path = root / "baseline.json"
        findings = run_paths(["src"], root)
        assert codes(findings) == ["NL101"]

        save_baseline(baseline_path, findings)
        baseline = load_baseline(baseline_path)
        new, baselined, stale = split_findings(findings, baseline)
        assert new == [] and len(baselined) == 1 and stale == []

        # a second offending line is new relative to the baseline
        self._write_tree(tmp_path, extra_line=True)
        findings = run_paths(["src"], root)
        new, baselined, stale = split_findings(findings, baseline)
        assert len(new) == 1 and len(baselined) == 1 and stale == []

        # fixing everything leaves the baseline entry stale
        (root / "src" / "pkg" / "mod.py").write_text(
            "def f(K):\n    return K\n", encoding="utf-8"
        )
        findings = run_paths(["src"], root)
        new, baselined, stale = split_findings(findings, baseline)
        assert new == [] and baselined == [] and len(stale) == 1

    def test_fingerprints_survive_line_moves(self, tmp_path):
        root = self._write_tree(tmp_path)
        baseline_path = root / "baseline.json"
        save_baseline(baseline_path, run_paths(["src"], root))
        baseline = load_baseline(baseline_path)

        # prepend unrelated code: line numbers shift, fingerprints don't
        mod = root / "src" / "pkg" / "mod.py"
        mod.write_text(
            "import numpy as np\n\n\ndef unrelated():\n    return 1\n\n"
            "def f(K):\n    return np.linalg.inv(K)\n",
            encoding="utf-8",
        )
        new, baselined, stale = split_findings(
            run_paths(["src"], root), baseline
        )
        assert new == [] and len(baselined) == 1 and stale == []


class TestRepoSelfCheck:
    def test_repo_clean_against_committed_baseline(self):
        findings = run_paths(
            ["src", "benchmarks", "tests", "examples"], REPO_ROOT
        )
        baseline = load_baseline(REPO_ROOT / "tools" / "numlint" / "baseline.json")
        new, _, stale = split_findings(findings, baseline)
        rendered = "\n".join(f.render() for f in new)
        assert new == [], f"new numlint findings:\n{rendered}"
        assert stale == [], (
            "stale baseline entries; run "
            "`python -m tools.numlint --update-baseline`"
        )

    def test_fixture_directory_is_excluded_from_walks(self):
        findings = run_paths(["tests"], REPO_ROOT)
        assert all("numlint_fixtures" not in f.relpath for f in findings)


class TestCli:
    def _run(self, *argv: str, cwd: Path = REPO_ROOT):
        return subprocess.run(
            [sys.executable, "-m", "tools.numlint", *argv],
            cwd=cwd,
            capture_output=True,
            text=True,
        )

    def test_repo_exits_zero(self):
        proc = self._run()
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_bad_file_exits_one_with_json(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TestBaseline.BAD, encoding="utf-8")
        proc = self._run(
            str(bad), "--root", str(tmp_path), "--no-baseline",
            "--format", "json",
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["code"] for f in payload["new"]] == ["NL101"]

    def test_update_baseline_then_clean(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TestBaseline.BAD, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        proc = self._run(
            "bad.py", "--root", str(tmp_path),
            "--baseline", str(baseline), "--update-baseline",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc = self._run(
            "bad.py", "--root", str(tmp_path), "--baseline", str(baseline)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_stale_baseline_fails_only_with_flag(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TestBaseline.BAD, encoding="utf-8")
        baseline = tmp_path / "baseline.json"
        proc = self._run(
            "bad.py", "--root", str(tmp_path),
            "--baseline", str(baseline), "--update-baseline",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        # fix the finding: its baseline fingerprint is now stale
        bad.write_text("def f(K):\n    return K\n", encoding="utf-8")
        proc = self._run(
            "bad.py", "--root", str(tmp_path), "--baseline", str(baseline)
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        proc = self._run(
            "bad.py", "--root", str(tmp_path), "--baseline", str(baseline),
            "--fail-stale",
        )
        assert proc.returncode == 1
        assert "stale" in proc.stdout

    def test_list_passes(self):
        proc = self._run("--list-passes")
        assert proc.returncode == 0
        for code in ("NL001", "NL101", "NL201", "NL301", "NL401", "NL601", "NL701"):
            assert code in proc.stdout

    def test_missing_path_is_usage_error(self):
        proc = self._run("no/such/dir")
        assert proc.returncode == 2

    def test_sarif_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(TestBaseline.BAD, encoding="utf-8")
        proc = self._run(
            str(bad), "--root", str(tmp_path), "--no-baseline",
            "--format", "sarif",
        )
        assert proc.returncode == 1
        doc = json.loads(proc.stdout)
        assert doc["version"] == "2.1.0"
        results = doc["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["NL101"]

    def test_explain_known_code(self):
        proc = self._run("--explain", "NL701")
        assert proc.returncode == 0
        assert "cache" in proc.stdout
        assert "triggers:" in proc.stdout and "clean:" in proc.stdout

    def test_explain_unknown_code(self):
        proc = self._run("--explain", "NL999")
        assert proc.returncode == 2
        assert "unknown code" in proc.stderr


@pytest.mark.parametrize("lint_pass", all_passes(), ids=lambda p: p.name)
def test_every_pass_declares_codes_and_description(lint_pass):
    assert lint_pass.codes, "passes must declare at least one code"
    assert lint_pass.description
    assert all(code.startswith("NL") for code in lint_pass.codes)
