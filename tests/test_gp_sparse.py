"""Sparse inducing-point GP: equivalence harness, re-selection, threading.

The load-bearing suite for the surrogate layer:

* with ``m >= n`` the sparse model must agree with the exact GP to 1e-8
  on mean / variance / evidence (the DTC + VFE identities),
* incremental ``add_data`` against a fixed inducing set must match a
  fresh fit bitwise-tight,
* inducing-point selection is deterministic (no RNG),
* a run chooses its surrogate only through ``RunSpec.surrogate`` (a
  serve job's ``surrogate`` key fills it), a ``kind`` and an integer
  inducing budget ``m``; its ``gp_fit`` spans name the kind, and a
  sparse-surrogate campaign resumes from its ledger bitwise-identically.
"""

from __future__ import annotations

import inspect
import pickle

import numpy as np
import pytest

from repro.bo import BatchBO, SequentialBO
from repro.bo.engine import BOEngine, RunSpec, SurrogateManager
from repro.bo.rembo import RemboBO
from repro.campaign import Campaign, CampaignSpec
from repro.circuits.behavioral.uvlo import UVLOTestbench
from repro.gp import (
    SURROGATE_KINDS,
    GaussianProcess,
    MarginalLikelihoodEvaluator,
    SparseGaussianProcess,
    SurrogateModel,
    SurrogateSpec,
    coerce_surrogate_spec,
    fit_hyperparameters,
    make_surrogate,
    select_inducing_points,
)
from repro.kernels import Matern52
from repro.runtime import ResultCache, RunLedger, RuntimePolicy, read_ledger
from repro.serve.jobs import build_spec
from repro.telemetry import TelemetryConfig, read_trace

EQ_TOL = 1e-8  # the m = n equivalence gate


def pair(X, y, noise=1e-4, kernel=None):
    """An exact GP and an m = n sparse GP conditioned on the same data."""
    dim = X.shape[1]
    k = kernel if kernel is not None else Matern52(dim=dim, ard=True)
    exact = GaussianProcess(k.clone(), noise_variance=noise).fit(X, y)
    sparse = SparseGaussianProcess(
        k.clone(), noise_variance=noise, m=X.shape[0]
    ).fit(X, y)
    return exact, sparse


class TestInducingSelection:
    def test_shape_and_determinism(self, rng):
        X = rng.uniform(-1, 1, (50, 4))
        Z1 = select_inducing_points(X, 10)
        Z2 = select_inducing_points(X.copy(), 10)
        assert Z1.shape == (10, 4)
        np.testing.assert_array_equal(Z1, Z2)  # bitwise: no RNG anywhere

    def test_m_equal_n_returns_data(self, rng):
        X = rng.uniform(-1, 1, (7, 2))
        Z = select_inducing_points(X, 7)
        np.testing.assert_array_equal(Z, X)
        assert Z is not X  # a copy, not an alias

    def test_centers_spread_over_clusters(self, rng):
        lo = rng.normal(-5.0, 0.1, (30, 2))
        hi = rng.normal(5.0, 0.1, (30, 2))
        Z = select_inducing_points(np.vstack([lo, hi]), 4)
        assert np.any(Z[:, 0] < 0) and np.any(Z[:, 0] > 0)

    def test_validation(self, rng):
        X = rng.uniform(-1, 1, (5, 2))
        with pytest.raises(ValueError):
            select_inducing_points(X, 0)
        with pytest.raises(ValueError):
            select_inducing_points(X, 6)


class TestExactEquivalence:
    """m = n collapses DTC/VFE to the exact GP; pinned at 1e-8."""

    def test_mean_variance_match(self, small_dataset, rng):
        X, y = small_dataset
        exact, sparse = pair(X, y)
        X_test = rng.uniform(-1, 1, (40, 3))
        pe, ps = exact.predict(X_test), sparse.predict(X_test)
        np.testing.assert_allclose(ps.mean, pe.mean, atol=EQ_TOL)
        np.testing.assert_allclose(ps.variance, pe.variance, atol=EQ_TOL)

    def test_evidence_matches(self, small_dataset):
        X, y = small_dataset
        exact, sparse = pair(X, y)
        assert sparse.log_marginal_likelihood() == pytest.approx(
            exact.log_marginal_likelihood(), abs=EQ_TOL
        )

    def test_evidence_gradient_matches_fd(self, small_dataset):
        # the sparse gradient is a central finite difference of the bound;
        # at m = n the bound IS the exact evidence, so it must agree with
        # the exact analytic gradient to FD accuracy (not to 1e-8)
        X, y = small_dataset
        exact, sparse = pair(X, y)
        _, ge = MarginalLikelihoodEvaluator(exact).evaluate(exact.theta)
        vs, gs = sparse.evaluate_theta(sparse.theta)
        assert vs == pytest.approx(exact.log_marginal_likelihood(), abs=EQ_TOL)
        np.testing.assert_allclose(gs, ge, atol=1e-4, rtol=1e-5)

    def test_different_kernels(self, small_dataset, rng):
        X, y = small_dataset
        exact, sparse = pair(X, y, kernel=Matern52(dim=3))  # iso, not ARD
        X_test = rng.uniform(-1, 1, (20, 3))
        np.testing.assert_allclose(
            sparse.predict(X_test).mean, exact.predict(X_test).mean, atol=EQ_TOL
        )

    def test_vfe_is_lower_bound_when_sparse(self, rng):
        X = rng.uniform(-1, 1, (60, 2))
        y = np.sin(3 * X[:, 0]) + 0.3 * X[:, 1]
        exact = GaussianProcess(Matern52(dim=2), noise_variance=1e-2).fit(X, y)
        sparse = SparseGaussianProcess(
            Matern52(dim=2), noise_variance=1e-2, m=12
        ).fit(X, y)
        assert sparse.n_inducing == 12
        assert (
            sparse.log_marginal_likelihood()
            <= exact.log_marginal_likelihood() + 1e-9
        )


class TestIncremental:
    def test_add_data_matches_fresh_fit(self, rng):
        X = rng.uniform(-1, 1, (40, 3))
        y = np.sin(2 * X[:, 0]) - X[:, 2]
        Z = select_inducing_points(X, 8)
        # a fixed inducing set isolates the factor-extension arithmetic
        inc = SparseGaussianProcess(
            Matern52(dim=3), noise_variance=1e-4, inducing_points=Z
        ).fit(X[:25], y[:25])
        inc.add_data(X[25:], y[25:])
        fresh = SparseGaussianProcess(
            Matern52(dim=3), noise_variance=1e-4, inducing_points=Z
        ).fit(X, y)
        X_test = rng.uniform(-1, 1, (15, 3))
        np.testing.assert_allclose(
            inc.predict(X_test).mean, fresh.predict(X_test).mean, atol=1e-10
        )
        np.testing.assert_allclose(
            inc.predict(X_test).variance,
            fresh.predict(X_test).variance,
            atol=1e-10,
        )
        assert inc.log_marginal_likelihood() == pytest.approx(
            fresh.log_marginal_likelihood(), abs=1e-8
        )

    def test_add_data_without_fit_fits(self, rng):
        gp = SparseGaussianProcess(Matern52(dim=2), m=4)
        gp.add_data(rng.uniform(-1, 1, (6, 2)), rng.standard_normal(6))
        assert gp.is_fitted and gp.n_train == 6

    def test_set_labels_keeps_inputs(self, rng):
        X = rng.uniform(-1, 1, (12, 2))
        gp = SparseGaussianProcess(Matern52(dim=2), m=6).fit(
            X, rng.standard_normal(12)
        )
        y2 = rng.standard_normal(12)
        gp.set_labels(y2)
        np.testing.assert_array_equal(gp.y_train, y2)
        fresh = SparseGaussianProcess(
            Matern52(dim=2), m=6, inducing_points=gp.inducing_points
        ).fit(X, y2)
        np.testing.assert_allclose(
            gp.predict(X).mean, fresh.predict(X).mean, atol=1e-10
        )

    def test_reselection_triggers_on_coverage_loss(self, rng):
        # fill the inducing budget on one cluster, then append a far-away
        # cluster: every new point is uncovered and the monitor must trip
        X0 = rng.normal(0.0, 0.3, (30, 2))
        gp = SparseGaussianProcess(Matern52(dim=2), m=8).fit(
            X0, rng.standard_normal(30)
        )
        assert gp.n_reselections == 0
        X_far = rng.normal(50.0, 0.3, (10, 2))
        gp.add_data(X_far, rng.standard_normal(10))
        assert gp.n_reselections == 1
        # the rebuilt set now covers both clusters
        assert np.any(np.linalg.norm(gp.inducing_points, axis=1) > 25)

    def test_nearby_data_extends_without_reselection(self, rng):
        X0 = rng.normal(0.0, 0.3, (30, 2))
        gp = SparseGaussianProcess(Matern52(dim=2), m=8).fit(
            X0, rng.standard_normal(30)
        )
        gp.add_data(rng.normal(0.0, 0.3, (10, 2)), rng.standard_normal(10))
        assert gp.n_reselections == 0
        assert gp.n_train == 40

    def test_budget_open_grows_inducing_set(self, rng):
        gp = SparseGaussianProcess(Matern52(dim=2), m=20).fit(
            rng.uniform(-1, 1, (8, 2)), rng.standard_normal(8)
        )
        assert gp.n_inducing == 8  # clamped to n
        gp.add_data(rng.uniform(-1, 1, (7, 2)), rng.standard_normal(7))
        assert gp.n_inducing == 15  # still below budget: tracks the data


class TestModelSurface:
    def test_protocol_conformance(self, rng):
        # fitted models: X_train/y_train raise before fit, which trips the
        # hasattr probing of runtime_checkable protocols
        X, y = rng.uniform(-1, 1, (6, 2)), rng.standard_normal(6)
        assert isinstance(
            SparseGaussianProcess(Matern52(dim=2), m=4).fit(X, y),
            SurrogateModel,
        )
        assert isinstance(GaussianProcess(Matern52(dim=2)).fit(X, y), SurrogateModel)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            SparseGaussianProcess(Matern52(dim=2)).predict([[0.0, 0.0]])

    def test_theta_setter_refactorizes(self, small_dataset, rng):
        X, y = small_dataset
        gp = SparseGaussianProcess(Matern52(dim=3), m=10).fit(X, y)
        before = gp.predict(X[:4]).mean.copy()
        theta = gp.theta
        theta[:-1] += 0.4
        gp.theta = theta
        after = gp.predict(X[:4]).mean
        assert not np.allclose(before, after)

    def test_pickle_roundtrip(self, small_dataset, rng):
        X, y = small_dataset
        gp = SparseGaussianProcess(Matern52(dim=3), m=10).fit(X, y)
        clone = pickle.loads(pickle.dumps(gp))
        X_test = rng.uniform(-1, 1, (8, 3))
        np.testing.assert_allclose(
            clone.predict(X_test).mean, gp.predict(X_test).mean, atol=1e-12
        )

    def test_hyperopt_improves_evidence(self, rng):
        X = rng.uniform(-1, 1, (35, 2))
        y = np.sin(4 * X[:, 0]) + 0.2 * rng.standard_normal(35)
        gp = SparseGaussianProcess(Matern52(dim=2), m=12).fit(X, y)
        before = gp.log_marginal_likelihood()
        fit_hyperparameters(gp, n_restarts=1, seed=0, max_iter=40)
        assert gp.log_marginal_likelihood() >= before - 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SparseGaussianProcess(Matern52(dim=2), noise_variance=0.0)
        with pytest.raises(ValueError):
            SparseGaussianProcess(Matern52(dim=2), m=0)


class TestSpecAndFactory:
    def test_coercion_forms(self):
        assert coerce_surrogate_spec(None) == SurrogateSpec(kind="exact")
        assert coerce_surrogate_spec("sparse").kind == "sparse"
        spec = coerce_surrogate_spec({"kind": "sparse", "m": 32})
        assert spec.m == 32
        assert coerce_surrogate_spec(spec) is spec

    def test_unknown_kind_names_allowed(self):
        with pytest.raises(ValueError, match="allowed kinds: exact, sparse$"):
            coerce_surrogate_spec("bogus")

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="allowed keys"):
            coerce_surrogate_spec({"kind": "sparse", "nope": 1})

    def test_non_spec_type_rejected(self):
        with pytest.raises(TypeError):
            coerce_surrogate_spec(42)

    def test_spec_is_a_kind_and_a_budget(self):
        assert SURROGATE_KINDS == ("exact", "sparse")
        assert list(SurrogateSpec.__dataclass_fields__) == ["kind", "m"]

    @pytest.mark.parametrize(
        "surrogate, allowed",
        [
            ("auto", "allowed kinds: exact, sparse"),
            ({"kind": "sparse", "switch_at": 10}, "allowed keys: kind, m"),
            ({"kind": "sparse", "noise_variance": 0.5}, "allowed keys: kind, m"),
            ({"kind": "sparse", "kmeans_iters": 3}, "allowed keys: kind, m"),
        ],
    )
    def test_removed_choices_rejected(self, surrogate, allowed):
        with pytest.raises(ValueError, match=allowed):
            RunSpec(surrogate=surrogate)

    @pytest.mark.parametrize("m", [2.5, True, 0, -3, "8", None])
    def test_m_must_be_a_positive_integer(self, m):
        # a float would silently truncate and a bool count as 0 or 1
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            coerce_surrogate_spec({"kind": "sparse", "m": m})

    def test_numpy_integer_m_accepted(self):
        spec = SurrogateSpec(kind="sparse", m=np.int64(32))
        assert spec.m == 32 and type(spec.m) is int

    def test_make_surrogate_kinds(self):
        assert isinstance(make_surrogate("exact", 3), GaussianProcess)
        sparse = make_surrogate({"kind": "sparse", "m": 9}, 3)
        assert isinstance(sparse, SparseGaussianProcess)
        assert sparse.m == 9
        assert isinstance(make_surrogate(None, 3), GaussianProcess)


class TestManagerAutoSwitch:
    """The manager builds the spec's model once and never swaps it."""

    def test_sparse_spec_builds_sparse_from_start(self, rng):
        manager = SurrogateManager(2, surrogate="sparse")
        model = manager.refit(
            rng.uniform(-1, 1, (10, 2)), rng.standard_normal(10)
        )
        assert isinstance(model, SparseGaussianProcess)

    def test_model_is_built_once(self, rng):
        manager = SurrogateManager(
            2, tune_every=10**9, surrogate={"kind": "sparse", "m": 4}
        )
        model = manager.model
        X = rng.uniform(-1, 1, (30, 2))
        y = rng.standard_normal(30)
        assert manager.refit(X[:10], y[:10]) is model
        assert manager.refit(X, y) is model
        assert model.n_inducing == 4


def uvlo_engine(seed=11):
    return RemboBO(
        batch_size=4, embedding_dim=3, tune_every=1, n_restarts=1, seed=seed
    )


def uvlo_run_spec(bench, surrogate=None):
    return RunSpec(
        bounds=bench.bounds(),
        n_init=6,
        n_batches=2,
        threshold=bench.threshold("delta_vthl"),
        surrogate=surrogate,
    )


class TestEngineThreading:
    def test_runspec_coerces_surrogate(self):
        spec = RunSpec(surrogate="sparse")
        assert isinstance(spec.surrogate, SurrogateSpec)
        assert RunSpec().surrogate == SurrogateSpec(kind="exact")
        with pytest.raises(ValueError, match="allowed kinds"):
            RunSpec(surrogate="bogus")

    def test_runspec_is_the_only_choice(self):
        for owner in (SequentialBO, BatchBO, RemboBO, BOEngine, Campaign):
            assert "surrogate" not in inspect.signature(owner).parameters
        assert "surrogate" not in CampaignSpec.__dataclass_fields__

    def test_uvlo_campaign_runs_sparse(self):
        bench = UVLOTestbench()
        campaign = Campaign(
            bench.objective("delta_vthl"), uvlo_engine(), seed=11
        )
        out = campaign.run(uvlo_run_spec(bench, surrogate="sparse"))
        assert out.run.n_evaluations == 14  # 6 init + 2 batches of 4
        assert out.spec.surrogate.kind == "sparse"

    @pytest.mark.parametrize(
        "surrogate, n_inducing",
        [(None, None), ({"kind": "sparse", "m": 5}, 5)],
    )
    def test_gp_fit_spans_name_the_surrogate(
        self, tmp_path, surrogate, n_inducing
    ):
        bench = UVLOTestbench()
        trace_path = tmp_path / "t.jsonl"
        Campaign(
            bench.objective("delta_vthl"),
            uvlo_engine(),
            seed=11,
            telemetry=TelemetryConfig(trace_path=trace_path),
        ).run(uvlo_run_spec(bench, surrogate=surrogate))
        spans = read_trace(trace_path).named("gp_fit")
        assert len(spans) == 2  # one per batch, each fit on n >= 6 > m
        for span in spans:
            kind = "exact" if n_inducing is None else "sparse"
            assert span.attrs["surrogate"] == kind
            assert span.attrs.get("n_inducing") == n_inducing

    def test_sparse_campaign_matches_m_equals_n_exact(self):
        # with m >= every n the campaign sees, the sparse surrogate is the
        # exact GP — the whole run must be bitwise-identical
        bench = UVLOTestbench()
        spec_exact = uvlo_run_spec(bench)
        spec_sparse = uvlo_run_spec(bench, surrogate={"kind": "sparse", "m": 64})
        exact = uvlo_engine().solve(
            objective=bench.objective("delta_vthl"), spec=spec_exact
        )
        sparse = uvlo_engine().solve(
            objective=bench.objective("delta_vthl"), spec=spec_sparse
        )
        np.testing.assert_allclose(sparse.X, exact.X, atol=1e-8)
        np.testing.assert_allclose(sparse.y, exact.y, atol=1e-8)

    def test_serve_job_accepts_surrogate(self):
        payload = {
            "name": "sparse-job",
            "testbench": "uvlo",
            "engine": {"kind": "This work", "batch_size": 4, "embedding_dim": 3},
            "run": {"n_init": 6, "n_batches": 1},
            "surrogate": {"kind": "sparse", "m": 32},
        }
        cspec = build_spec(payload)
        assert cspec.run_spec.surrogate.m == 32
        payload["surrogate"] = "bogus"
        with pytest.raises(ValueError, match="allowed kinds"):
            build_spec(payload)

    def test_serve_job_rejects_removed_choices(self):
        payload = {
            "name": "sparse-job",
            "testbench": "uvlo",
            "engine": {"kind": "This work", "batch_size": 4},
            "surrogate": "auto",
        }
        with pytest.raises(ValueError, match="allowed kinds: exact, sparse"):
            build_spec(payload)
        del payload["surrogate"]
        payload["engine"]["surrogate"] = "sparse"
        with pytest.raises(
            ValueError, match=r"\['surrogate'\]; allowed: .*'batch_size'"
        ):
            build_spec(payload)

    def test_ledger_resume_bitwise_identical(self, tmp_path):
        bench = UVLOTestbench()

        def run(policy):
            return uvlo_engine().solve(
                objective=bench.objective("delta_vthl"),
                spec=uvlo_run_spec(bench, surrogate="sparse"),
                policy=policy,
            )

        ledger_path = tmp_path / "sparse.jsonl"
        with RuntimePolicy(ledger=RunLedger(ledger_path)) as policy:
            uninterrupted = run(policy)

        cache = ResultCache.in_memory()
        cache.preload(read_ledger(ledger_path).completed)
        with RuntimePolicy(
            cache=cache, ledger=RunLedger(tmp_path / "resumed.jsonl")
        ) as policy:
            resumed = run(policy)
        assert np.array_equal(uninterrupted.X, resumed.X)
        assert np.array_equal(uninterrupted.y, resumed.y)
        assert np.array_equal(uninterrupted.Z, resumed.Z)
