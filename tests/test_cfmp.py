import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import random_spec
from ligraph import cfmp
from ligraph.cfmp import (
    CfmpSpec,
    ComponentIntensity,
    ComponentSpace,
    NonCoveringQueryError,
    RateRow,
    SpecValidationError,
    Trajectory,
    build_generator,
    ci_decay,
    classify_decay,
    component_depends_only_on,
    derive_graph,
    estimate_intensities,
    is_locally_independent,
    local_independence_oracle,
    set_locally_independent,
    simulate,
    simulate_batch,
    spec_from_json,
    spec_from_json_dict,
    spec_to_json,
    spec_to_json_dict,
    stationary_distribution,
    trajectory_from_jsonl,
    trajectory_to_jsonl,
    transition_matrix,
    uniform_distribution,
    vacuous_dependencies,
    validate_spec,
)
from ligraph.fixtures import (
    home_visits_process,
    independent_pair_process,
    three_cycle_process,
)
from ligraph.graphoid import build_truth_table
from ligraph.graphs import UnknownNodeError


def binary_pair(rate_x=(1.0, 1.0), rate_y=(1.0, 1.0), y_deps=()):
    """Two binary components; optional dependency of y on x."""
    if y_deps:
        rows_y = tuple(
            RateRow((v,), s, 1 - s, rate_y[s]) for v in (0, 1) for s in (0, 1)
        )
    else:
        rows_y = tuple(RateRow((), s, 1 - s, rate_y[s]) for s in (0, 1))
    return CfmpSpec(
        ComponentSpace(("x", "y"), (2, 2)),
        {
            "x": ComponentIntensity(
                (), tuple(RateRow((), s, 1 - s, rate_x[s]) for s in (0, 1))
            ),
            "y": ComponentIntensity(tuple(y_deps), rows_y),
        },
    )


def scaled_rates(spec, factor):
    return CfmpSpec(
        spec.space,
        {
            name: ComponentIntensity(
                ci.depends_on,
                tuple(RateRow(r.given, r.source, r.target, factor * r.rate) for r in ci.rows),
            )
            for name, ci in spec.intensities.items()
        },
    )


def binary_ring(k, seed=0):
    """k binary components in a directed ring, c{i} listening to c{i-1},
    with random rates in [0.5, 2]."""
    rng = random.Random(seed)
    names = tuple(f"c{i}" for i in range(k))
    return CfmpSpec(
        ComponentSpace(names, (2,) * k),
        {
            name: ComponentIntensity(
                (names[i - 1],),
                tuple(
                    RateRow((v,), s, 1 - s, rng.uniform(0.5, 2.0))
                    for v in (0, 1)
                    for s in (0, 1)
                ),
            )
            for i, name in enumerate(names)
        },
    )


def dense_decay_cmis(spec, pi, target, source, cond, hs):
    """Reference for ci_decay's CMIs: the dense scipy expm(Q h) applied to
    the one-hot target block, then the same joint table and _cmi."""
    space = spec.space
    q = build_generator(spec).matrix
    states = np.array(list(space.states()))
    t, s = space.index_of(target), space.index_of(source)
    w = sorted({space.index_of(c) for c in cond} | {t})
    w_cards = [space.cards[i] for i in w]
    w_ids = np.ravel_multi_index([states[:, i] for i in w], w_cards)
    onehot = np.eye(space.cards[t])[states[:, t]]
    cmis = []
    for h in hs:
        joint = np.zeros((int(np.prod(w_cards)), space.cards[s], space.cards[t]))
        np.add.at(joint, (w_ids, states[:, s]), pi[:, None] * (expm(q * h) @ onehot))
        cmis.append(cfmp._cmi(joint))
    return cmis


def assert_decay_matches_dense(spec, hs=cfmp.DEFAULT_HS):
    """On every ordered (source, target) pair, conditioning on the rest
    and on nothing, from the uniform and the stationary law."""
    laws = (
        uniform_distribution(spec.space),
        stationary_distribution(build_generator(spec)),
    )
    names = spec.space.names
    for pi in laws:
        for source, target in itertools.permutations(names, 2):
            rest = [n for n in names if n not in (source, target)]
            for cond in (rest, ()):
                report = ci_decay(spec, pi, target, source, cond, hs)
                ref = dense_decay_cmis(spec, pi, target, source, cond, hs)
                assert np.max(np.abs(np.subtract(report.cmis, ref))) <= 1e-12
                assert report.decay_class == classify_decay(hs, ref)[0]


class TestValidation:
    def test_fixtures_are_valid(self, cycle3_spec, visits_spec, independent_spec):
        for spec in (cycle3_spec, visits_spec, independent_spec):
            assert validate_spec(spec) == []

    def test_single_component_rejected(self):
        spec = CfmpSpec(
            ComponentSpace(("x",), (2,)),
            {"x": ComponentIntensity((), (RateRow((), 0, 1, 1.0), RateRow((), 1, 0, 1.0)))},
        )
        assert any("at least 2 components" in e for e in validate_spec(spec))

    def test_negative_rate_names_cell(self):
        spec = binary_pair(rate_x=(-0.5, 1.0))
        errors = validate_spec(spec)
        assert any("negative rate -0.5" in e and "x" in e for e in errors)

    def test_missing_cell_reported(self):
        spec = CfmpSpec(
            ComponentSpace(("x", "y"), (2, 2)),
            {
                "x": ComponentIntensity((), (RateRow((), 0, 1, 1.0),)),
                "y": ComponentIntensity((), (RateRow((), 0, 1, 1.0), RateRow((), 1, 0, 1.0))),
            },
        )
        assert any("missing rate" in e and "from=1" in e for e in validate_spec(spec))

    def test_duplicate_cell_reported(self):
        spec = CfmpSpec(
            ComponentSpace(("x", "y"), (2, 2)),
            {
                "x": ComponentIntensity(
                    (),
                    (RateRow((), 0, 1, 1.0), RateRow((), 0, 1, 2.0), RateRow((), 1, 0, 1.0)),
                ),
                "y": ComponentIntensity((), (RateRow((), 0, 1, 1.0), RateRow((), 1, 0, 1.0))),
            },
        )
        assert any("duplicate table cell" in e for e in validate_spec(spec))

    def test_cardinality_below_two(self):
        spec = CfmpSpec(
            ComponentSpace(("x", "y"), (1, 2)),
            {
                "x": ComponentIntensity((), ()),
                "y": ComponentIntensity((), (RateRow((), 0, 1, 1.0), RateRow((), 1, 0, 1.0))),
            },
        )
        assert any("state count" in e for e in validate_spec(spec))

    def test_state_space_guard(self):
        names = tuple(f"c{i}" for i in range(7))
        spec = CfmpSpec(
            ComponentSpace(names, (4,) * 7),
            {n: ComponentIntensity((), ()) for n in names},
        )
        assert any("limit 4096" in e for e in validate_spec(spec))

    def test_unknown_dependency(self):
        spec = binary_pair(y_deps=("zz",))
        assert any("depends_on" in e for e in validate_spec(spec))

    def test_overflowing_exit_rate_rejected(self):
        # each rate is finite, but the total exit rate of a state is not;
        # numpy scalar rates must not raise an overflow warning either
        for huge in ((1e308, 1e308), (np.float64(1e308),) * 2):
            assert validate_spec(binary_pair(rate_x=huge, rate_y=huge)) == [
                "the largest possible total exit rate overflows; scale the rates down"
            ]
            assert validate_spec(binary_pair(rate_x=huge, rate_y=(0.0, 0.0))) == []

    def test_operations_refuse_invalid_spec(self):
        spec = binary_pair(rate_x=(-1.0, 1.0))
        with pytest.raises(SpecValidationError):
            build_generator(spec)


class TestCompiledOnce:
    def test_validated_once_per_spec(self, monkeypatch):
        calls = []
        validate = cfmp.validate_spec
        monkeypatch.setattr(cfmp, "validate_spec", lambda spec: calls.append(1) or validate(spec))
        spec = home_visits_process()
        pi = uniform_distribution(spec.space)
        derive_graph(spec)
        vacuous_dependencies(spec)
        ci_decay(spec, pi, "hosp", "survival", ("health", "visits"))
        trajs = simulate_batch(spec, pi, 5.0, seed=1, count=5)
        estimate_intensities(trajs, spec)
        build_truth_table(local_independence_oracle(spec))
        assert len(calls) == 1

    def test_invalid_spec_raises_on_every_call(self):
        spec = binary_pair(rate_x=(-1.0, 1.0))
        for _ in range(2):
            with pytest.raises(SpecValidationError, match="negative rate"):
                derive_graph(spec)

    def test_intensities_read_only(self):
        spec = three_cycle_process()
        with pytest.raises(TypeError):
            spec.intensities["a"] = spec.intensities["b"]

    @pytest.mark.parametrize(
        "make, digest, jumps",
        [
            (three_cycle_process,
             "6a75a18e6d61428b944326b8721d4288dde6a9e5d87ed3d42a45e28d8a4c5bf3", 110),
            (home_visits_process,
             "8175986e2b6ffcc00a6f4214f0ff776bb5c4481efb289dccdf1a41e6f863875e", 122),
        ],
    )
    def test_trajectory_stream_pinned(self, make, digest, jumps):
        spec = make()
        trajs = simulate_batch(spec, uniform_distribution(spec.space), 20.0, seed=7, count=2)
        text = "".join(trajectory_to_jsonl(t, spec.space) for t in trajs)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert sum(len(t.jumps) for t in trajs) == jumps

    @pytest.mark.parametrize(
        "make, count, digest",
        [
            (three_cycle_process, 2,
             "8ba600fb69ce3b7e99c6471363d4975879695088857f910889388b470c27b3c0"),
            (home_visits_process, 2,
             "c01725480a9096b0462f76a20ad4e59e2d0255fb135ddba70b886530e02093ac"),
            (three_cycle_process, 0,
             "4435541e598b3596ff7507d40b4de24f20a6116972bcca5758b1fc34bd426ecb"),
        ],
    )
    def test_estimates_pinned(self, make, count, digest):
        spec = make()
        trajs = simulate_batch(spec, uniform_distribution(spec.space), 20.0, seed=7, count=count)
        text = json.dumps(estimate_intensities(trajs, spec).to_json_dict(), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestGenerator:
    def test_independent_pair_matrix(self, independent_spec):
        gen = build_generator(independent_spec)
        # states in order (0,0), (0,1), (1,0), (1,1)
        want = np.array(
            [
                [-2.0, 1.0, 1.0, 0.0],
                [1.0, -2.0, 0.0, 1.0],
                [1.0, 0.0, -2.0, 1.0],
                [0.0, 1.0, 1.0, -2.0],
            ]
        )
        assert np.array_equal(gen.matrix, want)

    def test_two_component_changes_are_exactly_zero(self, cycle3_spec, visits_spec):
        for spec in (cycle3_spec, visits_spec):
            gen = build_generator(spec)
            states = list(spec.space.states())
            for i, yi in enumerate(states):
                for j, yj in enumerate(states):
                    if i != j and sum(a != b for a, b in zip(yi, yj)) >= 2:
                        assert gen.matrix[i, j] == 0.0

    def test_rows_sum_to_zero(self, visits_spec):
        gen = build_generator(visits_spec)
        assert np.abs(gen.matrix.sum(axis=1)).max() <= 1e-12

    def test_matrix_read_only(self, cycle3_spec):
        gen = build_generator(cycle3_spec)
        with pytest.raises(ValueError):
            gen.matrix[0, 0] = 1.0


class TestTransitionMatrix:
    def test_identity_at_zero(self, cycle3_spec):
        gen = build_generator(cycle3_spec)
        assert np.array_equal(transition_matrix(gen, 0.0), np.eye(8))

    def test_zero_generator_gives_identity(self):
        spec = binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0))
        gen = build_generator(spec)
        assert np.array_equal(transition_matrix(gen, 3.0), np.eye(4))

    def test_matches_scipy_expm(self, cycle3_spec, visits_spec):
        for spec in (cycle3_spec, visits_spec):
            gen = build_generator(spec)
            for h in (0.05, 0.3, 2.0):
                want = expm(gen.matrix * h)
                got = transition_matrix(gen, h)
                assert np.abs(got - want).max() < 1e-12

    def test_matches_plain_taylor_series(self):
        import random

        spec = random_spec(random.Random(5))
        gen = build_generator(spec)
        h = 0.15
        qh = gen.matrix * h
        term = np.eye(qh.shape[0])
        total = np.eye(qh.shape[0])
        for k in range(1, 60):
            term = term @ qh / k
            total = total + term
        got = transition_matrix(gen, h)
        assert np.abs(got - total).max() < 1e-12
        assert np.abs(got.sum(axis=1) - 1.0).max() <= 1e-12

    def test_rows_stochastic_nonnegative(self):
        import random

        for seed in range(5):
            spec = random_spec(random.Random(seed))
            gen = build_generator(spec)
            p = transition_matrix(gen, 0.37)
            assert p.min() >= 0.0
            assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-12

    def test_first_order_flip_probability(self):
        r = 1.7
        spec = binary_pair(rate_x=(r, 0.0), rate_y=(0.0, 0.0))
        gen = build_generator(spec)
        for h in (0.01, 0.003):
            p = transition_matrix(gen, h)
            flip = p[0, 2]  # (0,0) -> (1,0)
            assert abs(flip - r * h) <= r * r * h * h

    def test_large_window_survives_scaling(self, cycle3_spec):
        gen = build_generator(cycle3_spec)
        p = transition_matrix(gen, 100.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
        assert p.min() >= 0.0

    @pytest.mark.parametrize("h", [-0.1, math.nan, math.inf])
    def test_negative_window_rejected(self, cycle3_spec, h):
        gen = build_generator(cycle3_spec)
        with pytest.raises(ValueError):
            transition_matrix(gen, h)

    def test_window_mean_cap(self, cycle3_spec):
        gen = build_generator(cycle3_spec)
        lam = float(np.max(-np.diag(gen.matrix)))
        # finite but huge windows are rejected instead of halved without end
        for h in (1e300, 1.01 * cfmp.MAX_WINDOW_MEAN / lam):
            with pytest.raises(ValueError, match="largest exit rate"):
                transition_matrix(gen, h)
        p = transition_matrix(gen, 0.99 * cfmp.MAX_WINDOW_MEAN / lam)
        assert np.abs(p.sum(axis=1) - 1.0).max() <= 1e-10
        assert p.min() >= 0.0


class TestConstancyChecks:
    def test_no_dependencies_always_independent(self, independent_spec):
        assert is_locally_independent(independent_spec, "x", "y")
        assert is_locally_independent(independent_spec, "y", "x")

    def test_genuine_dependency_detected(self, cycle3_spec):
        assert not is_locally_independent(cycle3_spec, "c", "a")
        assert is_locally_independent(cycle3_spec, "b", "a")

    def test_vacuous_dependency_detected(self, vacuous_spec):
        assert is_locally_independent(vacuous_spec, "x", "y")

    def test_same_component_rejected(self, cycle3_spec):
        with pytest.raises(ValueError):
            is_locally_independent(cycle3_spec, "a", "a")

    def test_unknown_component(self, cycle3_spec):
        with pytest.raises(UnknownNodeError):
            is_locally_independent(cycle3_spec, "zz", "a")

    def test_set_level_empty_sources(self, cycle3_spec):
        assert set_locally_independent(cycle3_spec, (), ("a", "b"), ("c",))

    def test_set_level_cycle_direction(self, cycle3_spec):
        assert set_locally_independent(cycle3_spec, ("b",), ("a",), ("c",))
        assert not set_locally_independent(cycle3_spec, ("a",), ("b",), ("c",))

    def test_non_covering_refused(self, visits_spec):
        with pytest.raises(NonCoveringQueryError, match="graph"):
            set_locally_independent(visits_spec, ("visits",), ("survival",), ("hosp",))

    def test_overlap_refused(self, cycle3_spec):
        with pytest.raises(NonCoveringQueryError):
            set_locally_independent(cycle3_spec, ("a",), ("a", "b"), ("c",))


class TestDeriveGraph:
    def test_cycle_wiring(self, cycle3_spec, cycle3):
        assert derive_graph(cycle3_spec) == cycle3

    def test_visits_wiring(self, visits_spec, visits_graph):
        assert derive_graph(visits_spec) == visits_graph

    def test_independent_edgeless(self, independent_spec):
        assert derive_graph(independent_spec).edges == frozenset()

    def test_vacuous_dependency_omitted(self, vacuous_spec):
        assert derive_graph(vacuous_spec).edges == frozenset()
        assert vacuous_dependencies(vacuous_spec) == [("x", "y")]

    def test_derived_subset_of_declared(self, cycle3_spec, visits_spec, vacuous_spec):
        for spec in (cycle3_spec, visits_spec, vacuous_spec):
            declared = {
                (j, k)
                for k in spec.space.names
                for j in spec.intensities[k].depends_on
            }
            derived = derive_graph(spec).edges
            assert derived <= declared
            assert (derived == declared) == (not vacuous_dependencies(spec))


class TestLocalMarkovStructure:
    def test_tables_factor_through_derived_parents(
        self, cycle3_spec, visits_spec, vacuous_spec
    ):
        for spec in (cycle3_spec, visits_spec, vacuous_spec):
            g = derive_graph(spec)
            for k in spec.space.names:
                parents = g.parents({k})
                assert component_depends_only_on(spec, k, parents)

    def test_set_level_local_markov(self, cycle3_spec, visits_spec):
        for spec in (cycle3_spec, visits_spec):
            g = derive_graph(spec)
            names = set(spec.space.names)
            for k in names:
                parents = set(g.parents({k}))
                rest = names - parents - {k}
                assert set_locally_independent(spec, rest, {k}, parents)


class TestCiDecay:
    def test_independent_components_zero(self, independent_spec):
        pi = uniform_distribution(independent_spec.space)
        report = ci_decay(independent_spec, pi, "x", "y", ())
        assert report.decay_class == "zero"
        assert max(report.cmis) <= 1e-12

    def test_cycle_separated_direction_fast(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        report = ci_decay(cycle3_spec, pi, "a", "b", ("c",))
        assert report.decay_class == "fast"
        assert all(o > 2.0 for o in report.orders)
        assert max(report.cmis) < 1e-3

    def test_cycle_edge_direction_slow(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        report = ci_decay(cycle3_spec, pi, "b", "a", ("c",))
        assert report.decay_class == "slow"
        assert all(o < 1.5 for o in report.orders)

    def test_cmis_nonnegative_and_ratios_consistent(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        report = ci_decay(cycle3_spec, pi, "b", "a", ("c",))
        assert all(c >= 0 for c in report.cmis)
        for i, ratio in enumerate(report.ratios):
            assert ratio == pytest.approx(report.cmis[i + 1] / report.cmis[i])

    def test_rejects_bad_distribution(self, cycle3_spec):
        n = cycle3_spec.space.n_states
        with pytest.raises(ValueError, match="mass"):
            ci_decay(cycle3_spec, np.ones(n), "a", "b", ("c",))
        bad = np.zeros(n)
        bad[0] = 1.5
        bad[1] = -0.5
        with pytest.raises(ValueError, match="negative"):
            ci_decay(cycle3_spec, bad, "a", "b", ("c",))
        with pytest.raises(ValueError, match="non-finite"):
            ci_decay(cycle3_spec, np.full(n, np.nan), "a", "b", ("c",))
        with pytest.raises(ValueError, match="non-finite"):
            simulate(cycle3_spec, np.full(n, np.nan), 1.0, seed=0)

    def test_rejects_bad_windows(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        with pytest.raises(ValueError, match="decreasing"):
            ci_decay(cycle3_spec, pi, "a", "b", ("c",), hs=(0.05, 0.1))
        with pytest.raises(ValueError, match="decreasing"):
            ci_decay(cycle3_spec, pi, "a", "b", ("c",), hs=(0.1, 1e-5))
        for hs in ((math.nan,), (math.inf,), (math.inf, 0.1), (0.2, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                ci_decay(cycle3_spec, pi, "a", "b", ("c",), hs=hs)
        for hs in ((1e300,), (1e300, 0.1)):
            with pytest.raises(ValueError, match="largest exit rate"):
                ci_decay(cycle3_spec, pi, "a", "b", ("c",), hs=hs)

    @pytest.mark.parametrize("hs", [(), (0.2,)])
    def test_rejects_fewer_than_two_windows(self, cycle3_spec, hs):
        # the decay class is a slope between rungs
        pi = uniform_distribution(cycle3_spec.space)
        with pytest.raises(ValueError, match="at least 2 window lengths"):
            ci_decay(cycle3_spec, pi, "b", "a", ("c",), hs=hs)

    def test_rejects_source_in_cond(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        with pytest.raises(ValueError, match="source"):
            ci_decay(cycle3_spec, pi, "a", "b", ("b", "c"))

    def test_target_in_cond_is_fine(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        r1 = ci_decay(cycle3_spec, pi, "a", "b", ("a", "c"))
        r2 = ci_decay(cycle3_spec, pi, "a", "b", ("c",))
        assert r1.cmis == r2.cmis

    @pytest.mark.parametrize(
        "make", [three_cycle_process, home_visits_process, independent_pair_process]
    )
    def test_matches_dense_expm(self, make):
        assert_decay_matches_dense(make())

    def test_matches_dense_expm_when_halving(self):
        # every window of the default ladder has lam h > UNIFORMIZATION_MAX_MEAN
        assert_decay_matches_dense(scaled_rates(three_cycle_process(), 400.0))

    def test_matches_dense_expm_on_long_windows(self):
        assert_decay_matches_dense(three_cycle_process(), hs=(100.0, 7.0, 0.3))

    def test_4096_states(self):
        spec = binary_ring(12)
        assert spec.space.n_states == cfmp.MAX_PRODUCT_STATES
        pi = uniform_distribution(spec.space)
        names = spec.space.names

        def report(source, target):
            cond = [n for n in names if n not in (source, target)]
            return ci_decay(spec, pi, target, source, cond)

        assert ("c0", "c1") in derive_graph(spec).edges
        assert report("c0", "c1").decay_class == "slow"
        assert report("c5", "c1").decay_class in ("fast", "zero")

    def test_never_forms_the_dense_transition_matrix(self, monkeypatch, visits_spec):
        pi = stationary_distribution(build_generator(visits_spec))
        expected = ci_decay(visits_spec, pi, "hosp", "survival", ("health", "visits"))

        def dense(*args):
            raise AssertionError("ci_decay formed a dense matrix")

        monkeypatch.setattr(cfmp, "build_generator", dense)
        monkeypatch.setattr(cfmp, "_expm_uniformized", dense)
        report = ci_decay(visits_spec, pi, "hosp", "survival", ("health", "visits"))
        assert report.to_json_dict() == expected.to_json_dict()


class TestStationaryDistribution:
    def test_solves_balance(self, visits_spec):
        gen = build_generator(visits_spec)
        pi = stationary_distribution(gen)
        assert pi.sum() == pytest.approx(1.0)
        assert np.abs(pi @ gen.matrix).max() < 1e-10

    def test_symmetric_rates_give_uniform(self, independent_spec):
        gen = build_generator(independent_spec)
        pi = stationary_distribution(gen)
        assert np.abs(pi - 0.25).max() < 1e-10

    # the stationary law does not depend on the time unit; scaling every
    # rate by 0 leaves an all-absorbing chain, which has no unique law
    @pytest.mark.parametrize("scale", [0.0, 1e-300, 1e-16, 1e-10, 1e15, 1e100])
    def test_invariant_to_time_unit(self, cycle3_spec, scale):
        data = spec_to_json_dict(cycle3_spec)
        for entry in data["intensities"].values():
            for row in entry["table"]:
                row["rate"] *= scale
        gen = build_generator(spec_from_json_dict(data))
        if scale == 0.0:
            with pytest.raises(ValueError, match="not unique"):
                stationary_distribution(gen)
            return
        expected = stationary_distribution(build_generator(cycle3_spec))
        assert np.abs(stationary_distribution(gen) - expected).max() < 1e-14

    def test_several_closed_classes_rejected(self):
        # every state absorbing: each one is stationary on its own
        gen = build_generator(binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0)))
        with pytest.raises(ValueError, match="not unique"):
            stationary_distribution(gen)


class TestSimulate:
    def test_absorbing_state_holds(self):
        spec = binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0))
        traj = simulate(spec, uniform_distribution(spec.space), 10.0, seed=3)
        assert traj.jumps == ()
        assert traj.horizon == 10.0

    def test_deterministic_given_seed(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        t1 = simulate(cycle3_spec, pi, 50.0, seed=11)
        t2 = simulate(cycle3_spec, pi, 50.0, seed=11)
        assert t1 == t2
        t3 = simulate(cycle3_spec, pi, 50.0, seed=12)
        assert t1 != t3

    def test_jump_count_matches_poisson_oracle(self):
        # one component flipping at rate 2 both ways: the jump count over
        # [0, 1000] is Poisson with mean 2000
        spec = binary_pair(rate_x=(2.0, 2.0), rate_y=(0.0, 0.0))
        traj = simulate(spec, uniform_distribution(spec.space), 1000.0, seed=42)
        n = len(traj.jumps)
        assert abs(n - 2000) <= 3 * math.sqrt(2000)

    def test_trajectory_invariants(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        traj = simulate(cycle3_spec, pi, 25.0, seed=9)
        assert traj.space == cycle3_spec.space
        times = [t for t, _, _ in traj.jumps]
        assert times == sorted(set(times))
        assert all(0 < t <= traj.horizon for t in times)
        state = list(traj.initial)
        for _, k, new in traj.jumps:
            assert 0 <= new < cycle3_spec.space.cards[k]
            assert new != state[k]
            state[k] = new

    def test_rejects_bad_horizon(self, cycle3_spec):
        with pytest.raises(ValueError, match="horizon"):
            simulate(cycle3_spec, uniform_distribution(cycle3_spec.space), 0.0, 1)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf])
    def test_rejects_non_finite_horizon(self, horizon):
        # every state absorbing, so a missing check would return, not loop
        spec = binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0))
        with pytest.raises(ValueError, match="horizon"):
            simulate(spec, uniform_distribution(spec.space), horizon, seed=3)

    def test_batch_uses_offset_seeds(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        batch = simulate_batch(cycle3_spec, pi, 10.0, seed=100, count=3)
        assert batch[1] == simulate(cycle3_spec, pi, 10.0, seed=101)

    @pytest.mark.parametrize("count", [-1, 1.0, True, "2"])
    def test_batch_rejects_bad_count(self, cycle3_spec, count):
        pi = uniform_distribution(cycle3_spec.space)
        with pytest.raises(ValueError, match="count"):
            simulate_batch(cycle3_spec, pi, 10.0, seed=1, count=count)

    @pytest.mark.parametrize("count", [0, 1])
    def test_rejects_horizon_with_too_many_jumps(self, cycle3_spec, count):
        pi = uniform_distribution(cycle3_spec.space)
        lam = -build_generator(cycle3_spec).matrix.diagonal().min()
        with pytest.raises(ValueError, match="largest exit rate"):
            simulate_batch(cycle3_spec, pi, 1e300, seed=1, count=count)
        with pytest.raises(ValueError, match="largest exit rate"):
            simulate_batch(cycle3_spec, pi, 1.01 * cfmp.MAX_HORIZON_MEAN / lam, seed=1, count=0)
        assert simulate_batch(cycle3_spec, pi, 0.99 * cfmp.MAX_HORIZON_MEAN / lam, 1, 0) == []

    def test_absorbing_chain_takes_any_finite_horizon(self):
        spec = binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0))
        assert simulate(spec, uniform_distribution(spec.space), 1e300, seed=3).jumps == ()

    def test_batch_checks_arguments_even_when_empty(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        assert simulate_batch(cycle3_spec, pi, 10.0, seed=1, count=0) == []
        with pytest.raises(ValueError, match="horizon"):
            simulate_batch(cycle3_spec, pi, math.nan, seed=1, count=0)
        with pytest.raises(ValueError, match="mass"):
            simulate_batch(cycle3_spec, 2 * pi, 10.0, seed=1, count=0)


class TestEstimate:
    def test_no_trajectories_all_undefined(self, cycle3_spec):
        est = estimate_intensities([], cycle3_spec)
        for cells in est.cells.values():
            for cell in cells.values():
                assert cell.exposure == 0.0 and type(cell.exposure) is float
                assert all(r is None for r in cell.rates.values())

    def test_round_trip_within_three_se(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        trajs = simulate_batch(cycle3_spec, pi, 100.0, seed=2000, count=50)
        est = estimate_intensities(trajs, cycle3_spec)
        true = {
            name: {(r.given, r.source, r.target): r.rate for r in ci.rows}
            for name, ci in cycle3_spec.intensities.items()
        }
        for name, cells in est.cells.items():
            for (given, src), cell in cells.items():
                assert cell.exposure > 5
                for dst, rate in cell.rates.items():
                    t = true[name][(given, src, dst)]
                    assert abs(rate - t) <= 3 * math.sqrt(t / cell.exposure)

    def test_equal_rates_agree_within_bands(self):
        spec = binary_pair(rate_x=(1.5, 1.5), rate_y=(1.5, 1.5))
        pi = uniform_distribution(spec.space)
        trajs = simulate_batch(spec, pi, 200.0, seed=31, count=10)
        est = estimate_intensities(trajs, spec)
        rates = [
            (cell.rates[dst], cell.exposure)
            for cells in est.cells.values()
            for cell in cells.values()
            for dst in cell.rates
        ]
        for rate, expo in rates:
            assert abs(rate - 1.5) <= 3 * math.sqrt(1.5 / expo)

    @pytest.mark.parametrize(
        "initial, jumps, message",
        [
            pytest.param((0, 0, 5), (), "does not fit", id="initial-out-of-range"),
            pytest.param((0.5, 0, 0), (), "must be integers", id="initial-fraction"),
            pytest.param((0, 0), (), "does not fit", id="initial-short"),
            pytest.param((0, 0, 0, 0), (), "does not fit", id="initial-long"),
            pytest.param((0, 0, 0), ((1.0, 2, 2),), "does not fit", id="jump-out-of-range"),
        ],
    )
    def test_rejects_trajectory_outside_spec(self, cycle3_spec, initial, jumps, message):
        # the trajectory's own check refuses it before estimation starts
        with pytest.raises(ValueError, match=message):
            estimate_intensities([Trajectory(cycle3_spec.space, initial, jumps, 5.0)], cycle3_spec)

    @pytest.mark.parametrize(
        "names, cards",
        [
            pytest.param(("a", "b", "c"), (2, 2, 3), id="other-cards"),
            pytest.param(("a", "c", "b"), (2, 2, 2), id="other-order"),
        ],
    )
    def test_rejects_trajectory_over_other_space(self, cycle3_spec, names, cards):
        traj = Trajectory(ComponentSpace(names, cards), (0, 0, 0), ((1.0, 2, 1),), 5.0)
        with pytest.raises(ValueError, match="does not fit"):
            estimate_intensities([traj], cycle3_spec)

    def test_exposure_accounts_for_full_horizon(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        trajs = simulate_batch(cycle3_spec, pi, 50.0, seed=8, count=4)
        est = estimate_intensities(trajs, cycle3_spec)
        for cells in est.cells.values():
            total = sum(cell.exposure for cell in cells.values())
            assert total == pytest.approx(200.0)


@st.composite
def wire_paths(draw):
    """A valid trajectory's parts over a small random space, built event
    by event: each jump moves one component to a different state."""
    cards = draw(st.lists(st.integers(2, 4), min_size=1, max_size=4))
    space = ComponentSpace(tuple(f"c{i}" for i in range(len(cards))), tuple(cards))
    state = [draw(st.integers(0, card - 1)) for card in cards]
    initial = tuple(state)
    t = 0.0
    jumps = []
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.floats(1e-3, 10.0))
        k = draw(st.integers(0, len(cards) - 1))
        new = draw(st.integers(0, cards[k] - 2))
        new += new >= state[k]
        state[k] = new
        jumps.append((t, k, new))
    horizon = t + draw(st.floats(0.0, 10.0)) if jumps else draw(st.floats(1e-3, 10.0))
    return space, initial, tuple(jumps), horizon


class TestTrajectory:
    @given(path=wire_paths(), data=st.data())
    def test_wire_form_round_trip_and_mutations(self, path, data):
        space, initial, jumps, horizon = path
        traj = Trajectory(space, initial, jumps, horizon)
        text = trajectory_to_jsonl(traj, space)
        back = trajectory_from_jsonl(text, space)
        assert back == traj
        assert trajectory_to_jsonl(back, space) == text
        # the arrays the check yields, against a replay of the events
        state, times = list(initial), [0.0]
        segments = [int(np.ravel_multi_index(state, space.cards))]
        for t, k, new in jumps:
            state[k] = new
            segments.append(int(np.ravel_multi_index(state, space.cards)))
            times.append(t)
        assert traj._segments.tolist() == segments
        assert traj._dwell.tolist() == [b - a for a, b in zip(times, times[1:] + [horizon])]
        assert traj._moved.tolist() == [k for _, k, _ in jumps]
        if not jumps:
            return
        i = data.draw(st.integers(0, len(jumps) - 1))
        t, k, new = jumps[i]
        before = initial[k]
        for _, k2, new2 in jumps[:i]:
            before = new2 if k2 == k else before
        mutations = [
            (t, k, space.cards[k]),  # an out-of-range state
            (jumps[i - 1][0] if i else 0.0, k, new),  # a time that does not increase
            (t, k, before),  # a jump that does not change state
            (t, len(space.cards), new),  # an unknown component index
            (t, k, new + 0.5),  # a non-integral state
        ]
        for jump in mutations:
            with pytest.raises(ValueError):
                Trajectory(space, initial, jumps[:i] + (jump,) + jumps[i + 1 :], horizon)

    @pytest.mark.parametrize(
        "jump",
        [pytest.param((1.0, 0), id="jump-short"), pytest.param((1.0, 0, 1, 0), id="jump-long")],
    )
    def test_rejects_ragged_states(self, cycle3_spec, jump):
        with pytest.raises(ValueError, match="triple"):
            Trajectory(cycle3_spec.space, (0, 0, 0), (jump,), 5.0)


class TestWireFormats:
    def test_spec_round_trip(self, visits_spec):
        text = spec_to_json(visits_spec)
        again = spec_from_json(text)
        assert spec_to_json(again) == text
        assert spec_to_json_dict(again) == spec_to_json_dict(visits_spec)

    def test_spec_accepts_integer_rates(self):
        data = spec_to_json_dict(binary_pair(rate_x=(1.0, 2.0)))
        for row in data["intensities"]["x"]["table"]:
            row["rate"] = int(row["rate"])
        spec = spec_from_json_dict(data)
        assert [r.rate for r in spec.intensities["x"].rows] == [1.0, 2.0]
        assert all(type(r.rate) is float for r in spec.intensities["x"].rows)

    def test_spec_rejects_wrong_given_keys(self):
        data = spec_to_json_dict(binary_pair(y_deps=("x",)))
        data["intensities"]["y"]["table"][0]["given"] = {"oops": 0}
        with pytest.raises(ValueError, match="given"):
            spec_from_json_dict(data)

    def test_trajectory_round_trip(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        traj = simulate(cycle3_spec, pi, 20.0, seed=77)
        text = trajectory_to_jsonl(traj, cycle3_spec.space)
        assert trajectory_from_jsonl(text, cycle3_spec.space) == traj

    def test_trajectory_rejects_component_mismatch(self, cycle3_spec, independent_spec):
        traj = simulate(
            independent_spec, uniform_distribution(independent_spec.space), 5.0, 1
        )
        text = trajectory_to_jsonl(traj, independent_spec.space)
        with pytest.raises(ValueError, match="components"):
            trajectory_from_jsonl(text, cycle3_spec.space)

    def test_trajectory_lines_are_single_component_events(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        traj = simulate(cycle3_spec, pi, 10.0, seed=5)
        lines = trajectory_to_jsonl(traj, cycle3_spec.space).splitlines()
        header = json.loads(lines[0])
        assert header["components"] == ["a", "b", "c"]
        for line in lines[1:]:
            event = json.loads(line)
            assert set(event) == {"time", "component", "new_state"}
