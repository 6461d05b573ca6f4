import copy
import hashlib
import itertools
import json
import math
import pickle
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from helpers import (
    assert_decay_matches_reference,
    event_line_mutations,
    random_spec,
    reference_trajectory_from_jsonl,
    reference_trajectory_to_jsonl,
)
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
from ligraph.graphoid import Axiom, LOCAL_INDEPENDENCE_GUARANTEES, build_truth_table, check_axiom
from ligraph.graphs import GraphError, UnknownNodeError
from ligraph.separation import delta_separates_masks


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


def dead_transitions_process():
    """a (3 states) listens to b (2), b to c (3), c to a.  Some rows have
    zero rates in the first, a middle and the last (component,
    destination) column, and (0, 0, 0) is absorbing.  The transitions
    into it are slow, so one of the two pinned paths is absorbed part-way."""
    names, cards = ("a", "b", "c"), (3, 2, 3)
    deps = {"a": "b", "b": "c", "c": "a"}
    # (component, given, source, target)
    dead = {("a", 0, 0, 1), ("a", 0, 0, 2), ("a", 1, 1, 0), ("b", 0, 0, 1), ("b", 2, 1, 0),
            ("c", 0, 0, 1), ("c", 0, 0, 2), ("c", 2, 1, 2), ("c", 1, 2, 1)}
    slow = {("a", 0, 1, 0), ("a", 0, 2, 0), ("b", 0, 1, 0), ("c", 0, 1, 0), ("c", 0, 2, 0)}

    def rate(cell):
        _, g, s, t = cell
        if cell in dead:
            return 0.0
        if cell in slow:
            return 0.14
        return 0.3 + 0.25 * ((3 * g + 2 * s + t) % 5)

    intensities = {
        name: ComponentIntensity((deps[name],), tuple(
            RateRow((g,), s, t, rate((name, g, s, t)))
            for g in range(cards[names.index(deps[name])])
            for s in range(card)
            for t in range(card)
            if s != t
        ))
        for name, card in zip(names, cards)
    }
    return CfmpSpec(ComponentSpace(names, cards), intensities)


def with_vacuous_dependency(spec, rng):
    """``spec`` with one component made to declare a dependency its rates
    ignore: its rows copied across the configurations of a new dependency,
    or of an existing one, from that dependency's state 0."""
    names = spec.space.names
    k = rng.choice(names)
    deps, rows = spec.intensities[k].depends_on, spec.intensities[k].rows
    new = [n for n in names if n != k and n not in deps]
    if new and (not deps or rng.random() < 0.5):
        d = rng.choice(new)
        card = spec.space.cards[names.index(d)]
        deps, rows = deps + (d,), [RateRow(r.given + (v,), r.source, r.target, r.rate)
                                   for r in rows for v in range(card)]
    else:
        axis = rng.randrange(len(deps))
        base = {(r.given[:axis] + r.given[axis + 1:], r.source, r.target): r.rate
                for r in rows if r.given[axis] == 0}
        rows = [RateRow(r.given, r.source, r.target,
                        base[r.given[:axis] + r.given[axis + 1:], r.source, r.target])
                for r in rows]
    return CfmpSpec(spec.space, {**spec.intensities, k: ComponentIntensity(deps, tuple(rows))})


def tolerance_chain_spec():
    """t depends on a and b with rates 1, 1 + 0.9e-9 and 1 + 1.8e-9 as
    a + b is 0, 1 and 2: within RATE_CONSTANCY_RTOL along each axis, so
    both dependencies are vacuous, but not across both axes at once."""
    flips = [RateRow((), s, 1 - s, 1.0) for s in (0, 1)]
    rows = [RateRow((a, b), s, 1 - s, 1.0 + 0.9e-9 * (a + b))
            for a in (0, 1) for b in (0, 1) for s in (0, 1)]
    return CfmpSpec(ComponentSpace(("a", "b", "t"), (2, 2, 2)), {
        "a": ComponentIntensity((), tuple(flips)),
        "b": ComponentIntensity((), tuple(flips)),
        "t": ComponentIntensity(("a", "b"), tuple(rows)),
    })


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
    states = np.array(list(np.ndindex(space.cards)))
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

    # a bool would index the dense rate table as a mask and a bool rate
    # read as 1.0; the other bad cells would raise inside compilation
    @pytest.mark.parametrize("row, match", [
        (RateRow((), True, 0, 3.0), "from=True to=0: configuration values and states must be ints"),
        (RateRow((), 0, np.bool_(1), 3.0), "to=True: configuration values and states must be ints"),
        (RateRow((), 0.0, 1, 1.0), "from=0.0 to=1: configuration values and states must be ints"),
        (RateRow([], 0, 1, 1.0), "given=\\[\\] from=0 to=1: configuration must be a tuple"),
        (RateRow((), 0, 1, True), "rate must be a real number, got True"),
        (RateRow((), 0, 1, "1.0"), "rate must be a real number, got '1.0'"),
        (RateRow((), 0, 1, None), "rate must be a real number, got None"),
    ])
    def test_bad_cell_types_reported(self, row, match):
        x = ComponentIntensity((), (row, RateRow((), 1, 0, 1.0)))
        spec = binary_pair()
        spec = CfmpSpec(spec.space, {**spec.intensities, "x": x})
        errors = validate_spec(spec)
        assert any(re.search(match, e) and e.startswith("x: ") for e in errors), errors
        with pytest.raises(SpecValidationError):
            build_generator(spec)

    def test_bool_configuration_value_reported(self):
        spec = binary_pair(y_deps=("x",))
        rows = [RateRow((True,) if r.given == (1,) else r.given, r.source, r.target, r.rate)
                for r in spec.intensities["y"].rows]
        spec = CfmpSpec(spec.space, {**spec.intensities, "y": ComponentIntensity(("x",), tuple(rows))})
        assert any("given={'x': True}" in e and "must be ints" in e for e in validate_spec(spec))

    def test_numpy_scalar_cells_accepted(self):
        rows = (RateRow((), np.int64(0), np.int64(1), np.float64(2.0)), RateRow((), 1, 0, 1))
        spec = binary_pair()
        spec = CfmpSpec(spec.space, {**spec.intensities, "x": ComponentIntensity((), rows)})
        assert validate_spec(spec) == []
        assert build_generator(spec).matrix[0, 2] == 2.0

    def test_unknown_intensity_key_reported(self):
        spec = binary_pair()
        spec = CfmpSpec(spec.space, {**spec.intensities, "z": spec.intensities["x"]})
        assert validate_spec(spec) == ["intensity tables for unknown components: ['z']"]

    def test_operations_refuse_invalid_spec(self):
        spec = binary_pair(rate_x=(-1.0, 1.0))
        with pytest.raises(SpecValidationError):
            build_generator(spec)

    # a container of the wrong type is one message, not a traceback and
    # not a string read as its characters
    @pytest.mark.parametrize("y, message", [
        (ComponentIntensity("x", ()), "depends_on must be a collection of names, not the string 'x'"),
        (ComponentIntensity("yy", ()), "depends_on must be a collection of names, not the string 'yy'"),
        (ComponentIntensity((), 5), "rows must be a collection of RateRow cells, not 5"),
        (ComponentIntensity((), (((), 0, 1, 1.0),)), "a rate-table row must be a RateRow, not ((), 0, 1, 1.0)"),
        (((), ()), "intensity table must be a ComponentIntensity, not ((), ())"),
    ])
    def test_bad_containers_reported(self, y, message):
        spec = CfmpSpec(binary_pair().space, {**binary_pair().intensities, "y": y})
        assert "y: " + message in validate_spec(spec)
        with pytest.raises(SpecValidationError):
            build_generator(spec)

    @pytest.mark.parametrize("space, intensities, match", [
        (None, {}, "space must be a ComponentSpace, not None"),
        (ComponentSpace(("x", "y"), (2, 2)), 5, "intensities must be a mapping, not 5"),
    ])
    def test_spec_needs_a_space_and_a_mapping(self, space, intensities, match):
        with pytest.raises(ValueError, match=match):
            CfmpSpec(space, intensities)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda spec, bad: build_generator(bad), "specs", id="build_generator"),
        pytest.param(lambda spec, bad: derive_graph(bad), "specs", id="derive_graph"),
        pytest.param(lambda spec, bad: vacuous_dependencies(bad), "specs", id="vacuous"),
        pytest.param(
            lambda spec, bad: component_depends_only_on(bad, "a", ()), "specs", id="depends_only_on"
        ),
        pytest.param(
            lambda spec, bad: is_locally_independent(bad, "a", "b"), "specs", id="is_locally"
        ),
        pytest.param(
            lambda spec, bad: set_locally_independent(bad, "a", "b", "c"), "specs", id="set_locally"
        ),
        pytest.param(lambda spec, bad: ci_decay(bad, [1.0], "a", "b"), "specs", id="ci_decay"),
        pytest.param(lambda spec, bad: simulate(bad, [1.0], 1.0, 0), "specs", id="simulate"),
        pytest.param(
            lambda spec, bad: simulate_batch(bad, [1.0], 1.0, 0, 1), "specs", id="simulate_batch"
        ),
        pytest.param(lambda spec, bad: estimate_intensities([], bad), "specs", id="estimate"),
        pytest.param(lambda spec, bad: local_independence_oracle(bad), "specs", id="oracle"),
        pytest.param(lambda spec, bad: spec_to_json_dict(bad), "specs", id="to_json_dict"),
        pytest.param(lambda spec, bad: spec_to_json(bad), "specs", id="to_json"),
        pytest.param(lambda spec, bad: transition_matrix(spec, 0.2), "generators", id="transition"),
        pytest.param(
            lambda spec, bad: stationary_distribution(build_generator(spec).matrix),
            "generators",
            id="stationary",
        ),
        pytest.param(
            lambda spec, bad: classify_decay((0.1, 0.05, 0.02), (1e-3, 1e-4)),
            "3 window lengths but 2 values",
            id="classify-short-cmis",
        ),
        pytest.param(
            lambda spec, bad: classify_decay((0.1, 0.05), (1e-3, 1e-4, 1e-5)),
            "2 window lengths but 3 values",
            id="classify-long-cmis",
        ),
        # a repeated and a negative window: a ZeroDivisionError and a math
        # domain error, before classify_decay checked its ladder
        pytest.param(
            lambda spec, bad: classify_decay((0.1, 0.1), (1.0, 1.0)),
            "strictly decreasing",
            id="classify-repeated-window",
        ),
        pytest.param(
            lambda spec, bad: classify_decay((0.1, -0.1), (1.0, 1.0)),
            "strictly decreasing",
            id="classify-negative-window",
        ),
    ])
    def test_wrong_argument_types_are_value_errors(self, cycle3_spec, call, message):
        # a spec's JSON dict in place of the spec, the spec or a matrix in
        # place of a generator: each was an AttributeError, and a short
        # list of values an IndexError
        bad = spec_to_json_dict(cycle3_spec)
        with pytest.raises(ValueError, match=message) as error:
            call(cycle3_spec, bad)
        assert "\n" not in str(error.value)
        if message in ("specs", "generators"):
            assert str(error.value).startswith(f"{message} must be ")


class TestComponentSpace:
    def test_keeps_names_and_int_cards(self):
        sp = ComponentSpace(["x", "y"], (1, np.int64(3)))
        assert sp.names == ("x", "y") and sp.cards == (1, 3)
        assert all(type(c) is int for c in sp.cards)

    # a repeated name would make a trajectory read back other than it
    # was written; the cards would otherwise be truncated or coerced
    @pytest.mark.parametrize("names, cards, match", [
        (("a", "a"), (2, 2), "distinct strings"),
        (("a", 1), (2, 2), "distinct strings"),
        ("ab", (2, 2), "the string 'ab'"),
        (None, (2, 2), "not None"),
        (("a", "b"), (2.7, 2), "positive ints"),
        (("a", "b"), (True, 2), "positive ints"),
        (("a", "b"), ("2", 2), "positive ints"),
        (("a", "b"), (0, 2), "positive ints"),
        (("a", "b"), (2,), "differ in length"),
    ])
    def test_rejects_bad_names_or_cards(self, names, cards, match):
        with pytest.raises(ValueError, match=match):
            ComponentSpace(names, cards)


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

    # The digests pin the sampler's random stream: the initial state from
    # rng.choice, then holding times and transition uniforms drawn
    # SAMPLE_BLOCK at a time.  A change of that stream re-pins them.
    @pytest.mark.parametrize(
        "make, digest, jumps",
        [
            (three_cycle_process,
             "34bf938fbf22477fbfde519070f2369e127a1340668c52cedf9df7b57eb210ea", 119),
            (home_visits_process,
             "ccc3bb0d58b40e2111f3c059ab67b94f8b74957e1057692335848b5b5ddee32b", 152),
            (dead_transitions_process,
             "bc44e96c785db1d23f145a70b01d06debdc2ac145af838a17bcbcfd36f807d7b", 103),
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
             "a8db4cbbefee3757660b170036bc8a0b07c704383f87632cd70dc59e47c978c7"),
            (home_visits_process, 2,
             "cbadde8842b2a917eb9e93f9db3b0c5abda162d02a860c4dba6ecf42c64476ae"),
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
            states = list(np.ndindex(spec.space.cards))
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

    def test_matches_scipy_expm_at_the_window_cap(self, cycle3_spec, visits_spec):
        # lam h = MAX_WINDOW_MEAN: the series runs at h / 2^8 and is squared
        for spec in (cycle3_spec, visits_spec):
            gen = build_generator(spec)
            lam = float(np.max(-np.diag(gen.matrix)))
            h = cfmp.MAX_WINDOW_MEAN / lam
            assert lam * h == cfmp.MAX_WINDOW_MEAN
            got = transition_matrix(gen, h)
            assert np.abs(got - expm(gen.matrix * h)).max() < 1e-12

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

    @pytest.mark.parametrize("h", [-0.1, math.nan, math.inf, True, "0.2", None])
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

    # a set-valued argument is never reinterpreted: an unknown name is
    # refused, and so is a bare string, which would be read as its
    # characters
    @pytest.mark.parametrize("call, error, match", [
        (lambda s: component_depends_only_on(s, "a", ["zzz"]), UnknownNodeError, "'zzz'"),
        (lambda s: component_depends_only_on(s, "a", "bc"), ValueError, "keep .* string 'bc'"),
        (lambda s: ci_decay(s, uniform_distribution(s.space), "a", "b", cond="c"),
         ValueError, "cond .* string 'c'"),
        (lambda s: set_locally_independent(s, "b", ("a",), ("c",)), ValueError, "sources"),
        (lambda s: set_locally_independent(s, ("b",), "a", ("c",)), ValueError, "targets"),
        (lambda s: set_locally_independent(s, ("b",), ("a",), "c"), ValueError, "given"),
        (lambda s: ci_decay(s, uniform_distribution(s.space), "a", "b", cond=None),
         ValueError, "cond .* not None"),
        # a member that cannot hash, a list say
        (lambda s: set_locally_independent(s, [["b"]], ("a",), ("c",)), GraphError,
         r"^sources must be a set of labels, not \[\['b'\]\]$"),
        (lambda s: component_depends_only_on(s, "a", [["b"]]), GraphError,
         r"^keep must be a set of labels, not \[\['b'\]\]$"),
        (lambda s: local_independence_oracle(s).query(["a"], ["b"], [["c"]]), GraphError,
         r"^given must be a set of labels, not \[\['c'\]\]$"),
    ])
    def test_set_arguments_not_reinterpreted(self, cycle3_spec, call, error, match):
        with pytest.raises(error, match=match):
            call(cycle3_spec)


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
        # the tolerance chain's t has no parent: it depends on nothing
        for spec in (cycle3_spec, visits_spec, vacuous_spec, tolerance_chain_spec()):
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


class TestLocalIndependenceOnRandomSpecs:
    """On a covering triple, where sources, targets and given partition
    the components, local independence in the tables is delta-separation
    in the derived graph (the Markov property of local independence
    graphs; Didelez, JRSS-B 2008).  Specs with vacuous dependencies are
    included: derive_graph drops those, and the tables must agree.  So
    is a spec whose dependencies are vacuous one axis at a time but not
    jointly: a dependency is read one axis at a time everywhere."""

    @pytest.fixture(scope="class")
    def specs(self):
        rng = random.Random(7)
        specs = [random_spec(rng) for _ in range(60)]
        specs += [with_vacuous_dependency(spec, rng) for spec in specs]
        return specs + [tolerance_chain_spec()]

    def test_guarantees_hold(self, specs):
        # a covering triple holds when no source is a target's parent, so
        # two source sets that each hold hold together: left intersection
        checked = dict.fromkeys((*LOCAL_INDEPENDENCE_GUARANTEES, Axiom.LEFT_INTERSECTION), 0)
        for spec in specs:
            oracle = local_independence_oracle(spec)
            table = build_truth_table(oracle)
            for ax in checked:
                report = check_axiom(oracle, ax, table)
                assert report.holds, (spec, report)
                checked[ax] += report.checked
        # a pass over few checked instances would show nothing
        assert min(checked.values()) > 0, checked

    def test_covering_triples_match_delta_separation(self, specs):
        assert all(vacuous_dependencies(spec) for spec in specs[60:])
        for spec in specs:
            names = spec.space.names
            g = derive_graph(spec)
            for parts in itertools.product(range(3), repeat=len(names)):
                a, b, c = ([n for n, p in zip(names, parts) if p == i] for i in range(3))
                expected = delta_separates_masks(g, g.mask_of(a), g.mask_of(b), g.mask_of(c))
                assert set_locally_independent(spec, a, b, c) == expected, (spec, a, b, c)


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

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda pi: pi == pi.max(), id="bool"),
            pytest.param(lambda pi: pi.astype(complex), id="complex"),
            pytest.param(lambda pi: [repr(p) for p in pi], id="numeric-strings"),
            pytest.param(lambda pi: dict(enumerate(pi)), id="dict"),
        ],
    )
    @pytest.mark.parametrize(
        "call",
        [
            pytest.param(lambda s, pi: ci_decay(s, pi, "a", "b", ("c",)), id="ci_decay"),
            pytest.param(lambda s, pi: simulate(s, pi, 1.0, seed=0), id="simulate"),
            pytest.param(lambda s, pi: simulate_batch(s, pi, 1.0, 0, 2), id="simulate_batch"),
        ],
    )
    def test_distribution_is_never_reinterpreted(self, cycle3_spec, make, call):
        # a law is a vector of int or float numbers: a bool vector is not
        # read as 1.0/0.0, nor complex numbers without their imaginary
        # part, nor strings as the numbers they spell
        pi = np.zeros(cycle3_spec.space.n_states)
        pi[0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^distribution must be numbers$"):
                call(cycle3_spec, make(pi))

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
        # a string is not read digit by digit, nor a bool as 1.0
        for hs in ("21", (True, 0.5), (2.0, "1"), 0.2, None):
            with pytest.raises(ValueError, match="window lengths must be"):
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

    def test_halved_block_path_pinned(self, cycle3_spec):
        # lam h = 9,800 is halved 8 times: 256 passes of the series in
        # sequence; lam h = 60 once.  The digest was taken when the
        # halving was still recursive, so it pins the outputs bitwise.
        lam = float(np.max(-np.diag(build_generator(cycle3_spec).matrix)))
        hs = (9800.0 / lam, 60.0 / lam)
        assert lam * hs[0] == 9800.0
        pi = uniform_distribution(cycle3_spec.space)
        report = ci_decay(cycle3_spec, pi, "a", "b", ("c",), hs=hs)
        text = json.dumps(report.to_json_dict())
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "65b243b01685d48a5f52e466ea306d3633768befa74112f90b1206b32b4a13fc"
        )

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


class TestDecayMatchesReferenceKernel:
    """The flat-take step and the bincount tables against the fancy-index
    step and the np.add.at tables, exactly, not within a tolerance."""

    def test_random_specs(self):
        rng = random.Random(7)
        count = three_state_targets = 0
        for _ in range(60):
            spec = random_spec(rng)
            names = spec.space.names
            laws = (
                uniform_distribution(spec.space),
                stationary_distribution(build_generator(spec)),
            )
            for pi, source, target in itertools.product(laws, names, names):
                if source != target:
                    rest = tuple(n for n in names if n not in (source, target))
                    for cond in (rest, ()):
                        assert_decay_matches_reference(spec, pi, target, source, cond)
                        count += 1
                        three_state_targets += spec.space.cards[names.index(target)] == 3
        assert count == 1456 and three_state_targets > 0

    def test_1024_state_ring(self):
        spec = binary_ring(10)
        assert spec.space.n_states == 1024
        pi = np.random.default_rng(3).dirichlet(np.ones(1024))
        pi /= pi.sum()
        names = spec.space.names
        for source, target in (("c0", "c1"), ("c5", "c1")):
            # the empty set sums 512 states into each joint cell
            for cond in ([n for n in names if n not in (source, target)], ()):
                assert_decay_matches_reference(spec, pi, target, source, cond)


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
        assert batch == [simulate(cycle3_spec, pi, 10.0, seed=100 + i) for i in range(3)]

    @pytest.mark.parametrize("count", [-1, 1.0, True, "2", np.int64(-1), np.bool_(True)])
    def test_batch_rejects_bad_count(self, cycle3_spec, count):
        pi = uniform_distribution(cycle3_spec.space)
        with pytest.raises(ValueError, match="count"):
            simulate_batch(cycle3_spec, pi, 10.0, seed=1, count=count)

    @pytest.mark.parametrize(
        "seed, horizon, what",
        [(-1, 10.0, "seed"), (1.5, 10.0, "seed"), ("3", 10.0, "seed"), (True, 10.0, "seed"),
         (1, "5", "horizon"), (1, True, "horizon")],
    )
    def test_batch_rejects_bad_seed_or_horizon(self, cycle3_spec, seed, horizon, what):
        pi = uniform_distribution(cycle3_spec.space)
        for count in (0, 1):
            with pytest.raises(ValueError, match=what):
                simulate_batch(cycle3_spec, pi, horizon, seed=seed, count=count)

    def test_batch_takes_numpy_scalars(self, cycle3_spec):
        pi = uniform_distribution(cycle3_spec.space)
        want = simulate_batch(cycle3_spec, pi, 10.0, seed=4, count=2)
        assert simulate_batch(cycle3_spec, pi, np.float64(10.0), np.int64(4), np.int64(2)) == want

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


class TestColumns:
    """A trajectory's jumps as three read-only columns."""

    def test_triples_rebuild_the_simulated_trajectory(self, cycle3_spec):
        traj = simulate(cycle3_spec, uniform_distribution(cycle3_spec.space), 50.0, seed=3)
        assert [c.dtype for c in (traj.times, traj.components, traj.states)] == [
            np.float64, np.int64, np.int64
        ]
        again = Trajectory(traj.space, traj.initial, traj.jumps, traj.horizon)
        assert again == traj and hash(again) == hash(traj)
        assert again != Trajectory(traj.space, traj.initial, traj.jumps[:-1], traj.horizon)

    def test_columns_are_read_only(self, cycle3_spec):
        traj = simulate(cycle3_spec, uniform_distribution(cycle3_spec.space), 50.0, seed=3)
        for column in (traj.times, traj.components, traj.states):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = column[1]
        with pytest.raises(AttributeError):
            traj.times = traj.times.copy()
        for again in (pickle.loads(pickle.dumps(traj)), copy.deepcopy(traj), copy.copy(traj)):
            assert again == traj
            assert not any(c.flags.writeable for c in (again.times, again.components, again.states))

    def test_absorbing_start_gives_empty_columns(self):
        spec = binary_pair(rate_x=(0.0, 0.0), rate_y=(0.0, 0.0))
        traj = simulate(spec, uniform_distribution(spec.space), 10.0, seed=3)
        assert traj == Trajectory(spec.space, traj.initial, (), 10.0)
        assert (traj.times.dtype, traj.times.shape) == (np.float64, (0,))
        for column in (traj.components, traj.states):
            assert (column.dtype, column.shape) == (np.int64, (0,))
        est = estimate_intensities([traj], spec)
        assert sum(cell.exposure for cell in est.cells["x"].values()) == 10.0

    def test_path_of_several_blocks_repeats_and_estimates(self):
        spec = binary_pair(rate_x=(2.0, 3.0), rate_y=(0.5, 1.0))
        pi = uniform_distribution(spec.space)
        traj = simulate(spec, pi, 500.0, seed=5)
        assert len(traj.jumps) > 4 * cfmp.SAMPLE_BLOCK
        assert simulate(spec, pi, 500.0, seed=5) == traj
        true = {"x": (2.0, 3.0), "y": (0.5, 1.0)}
        for name, cells in estimate_intensities([traj], spec).cells.items():
            for ((), src), cell in cells.items():
                rate = true[name][src]
                assert abs(cell.rates[1 - src] - rate) <= 3 * math.sqrt(rate / cell.exposure)


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

    @pytest.mark.parametrize("trajectories, match", [
        pytest.param(5, "trajectories must be a collection of trajectories, not 5", id="int"),
        pytest.param([5], "trajectories must be Trajectory instances, not 5", id="int-item"),
        pytest.param("ab", "the string 'ab'", id="str"),
    ])
    def test_rejects_what_is_not_trajectories(self, cycle3_spec, trajectories, match):
        with pytest.raises(ValueError, match=match):
            estimate_intensities(trajectories, cycle3_spec)

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


def read_outcome(read, text, space):
    """What ``read`` makes of ``text``: the trajectory's fields by repr,
    or the type and message of the ValueError it raises."""
    try:
        traj = read(text, space)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr((traj.initial, traj.jumps, traj.horizon))


class TestTrajectory:
    @given(path=wire_paths(), data=st.data())
    def test_wire_form_round_trip_and_mutations(self, path, data):
        space, initial, jumps, horizon = path
        traj = Trajectory(space, initial, jumps, horizon)
        text = trajectory_to_jsonl(traj, space)
        assert text == reference_trajectory_to_jsonl(traj, space)
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
        assert traj.components.tolist() == [k for _, k, _ in jumps]
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
        # the same jump's line, respelled or broken, against the per-line reader
        lines = text.splitlines()
        for mutated in event_line_mutations(lines[i + 1]).values():
            changed = "\n".join(lines[: i + 1] + [mutated] + lines[i + 2 :]) + "\n"
            expected = read_outcome(reference_trajectory_from_jsonl, changed, space)
            assert read_outcome(trajectory_from_jsonl, changed, space) == expected

    @pytest.mark.parametrize("time", [5e-324, 1e-05, 0.1, 1 / 3, 123456789.125, 1e16, 1.5e300])
    def test_jsonl_matches_the_reference_on_extreme_times(self, time):
        space = ComponentSpace(("a", "b"), (2, 3))
        traj = Trajectory(space, (0, 2), ((time, 1, 0), (2 * time, 0, 1)), 4 * time)
        text = trajectory_to_jsonl(traj, space)
        assert text == reference_trajectory_to_jsonl(traj, space)
        assert read_outcome(trajectory_from_jsonl, text, space) == repr(
            (traj.initial, traj.jumps, traj.horizon)
        )

    def test_jsonl_quotes_and_reads_names_as_json_does(self):
        names = ("\u00e9", 'q"', "\u2028", "a\\b", "", "c\x01", "\x7f")
        space = ComponentSpace(names, (2,) * len(names))
        jumps = tuple((1.0 + k, k, 1) for k in range(len(names)))
        traj = Trajectory(space, (0,) * len(names), jumps, 9.0)
        text = trajectory_to_jsonl(traj, space)
        assert text == reference_trajectory_to_jsonl(traj, space)
        assert trajectory_from_jsonl(text, space) == traj
        # each name unescaped in the event lines, as a hand-written file may have it
        header, _, events = text.partition("\n")
        for name in names:
            raw = f"{header}\n" + events.replace(json.dumps(name), f'"{name}"')
            expected = read_outcome(reference_trajectory_from_jsonl, raw, space)
            assert read_outcome(trajectory_from_jsonl, raw, space) == expected

    @pytest.mark.parametrize(
        "jump",
        [
            pytest.param((True, 0, 1), id="bool-time"),
            pytest.param((1.0, False, 1), id="bool-component"),
            pytest.param((1.0, 0, True), id="bool-state"),
            pytest.param((np.True_, 0, 1), id="numpy-bool-time"),
            pytest.param((1.0, 0, np.True_), id="numpy-bool-state"),
        ],
    )
    def test_rejects_a_bool_in_a_jump(self, jump):
        space = ComponentSpace(("a", "b"), (2, 2))
        with pytest.raises(ValueError, match=r"jump 0 .* holds a bool"):
            Trajectory(space, (0, 0), (jump, (2.0, 1, 1)), 5.0)

    @pytest.mark.parametrize(
        "jump, time",
        [
            pytest.param((np.float64(1.0), np.int64(0), np.int64(1)), "1.0", id="numpy-scalars"),
            pytest.param((np.float32(1.5), np.int32(0), np.uint8(1)), "1.5", id="narrow-numpy"),
            pytest.param((1, 0, 1), "1.0", id="int-time"),
        ],
    )
    def test_keeps_plain_jumps_that_write_and_read_back(self, jump, time):
        space = ComponentSpace(("a", "b"), (2, 2))
        traj = Trajectory(space, (0, 0), (jump,), 5.0)
        assert [tuple(map(type, j)) for j in traj.jumps] == [(float, int, int)]
        text = trajectory_to_jsonl(traj, space)
        assert text.splitlines()[1] == f'{{"time": {time}, "component": "a", "new_state": 1}}'
        assert text == reference_trajectory_to_jsonl(traj, space)
        assert trajectory_from_jsonl(text, space) == traj

    @pytest.mark.parametrize(
        "jump",
        [pytest.param((1.0, 0), id="jump-short"), pytest.param((1.0, 0, 1, 0), id="jump-long")],
    )
    def test_rejects_ragged_states(self, cycle3_spec, jump):
        with pytest.raises(ValueError, match="triple"):
            Trajectory(cycle3_spec.space, (0, 0, 0), (jump,), 5.0)

    @pytest.mark.parametrize("jumps, match", [
        pytest.param(5, "jumps must be a collection of jumps, not 5", id="int"),
        pytest.param(None, "jumps must be a collection of jumps, not None", id="none"),
        pytest.param((5,), "jump 0 must be a .* triple, not 5", id="int-jump"),
        pytest.param(((1.0, 0, 1), "abc"), "jump 1 must be a .* triple, not the string", id="str-jump"),
    ])
    def test_rejects_jumps_that_are_not_triples(self, cycle3_spec, jumps, match):
        with pytest.raises(ValueError, match=match):
            Trajectory(cycle3_spec.space, (0, 0, 0), jumps, 5.0)

    def test_takes_jumps_as_lists(self, cycle3_spec):
        traj = Trajectory(cycle3_spec.space, [0, 0, 0], [[1.0, 0, 1]], 5.0)
        assert traj.jumps == ((1.0, 0, 1),)

    def test_rejects_a_space_that_is_not_a_component_space(self):
        with pytest.raises(ValueError, match="space must be a ComponentSpace, not None"):
            Trajectory(None, (0, 0), (), 5.0)

    @pytest.mark.parametrize("horizon", [0.0, math.nan, "5", True, None])
    def test_rejects_bad_horizon(self, cycle3_spec, horizon):
        with pytest.raises(ValueError, match="horizon must be a positive finite number"):
            Trajectory(cycle3_spec.space, (0, 0, 0), (), horizon)


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

    def test_simulated_jsonl_round_trips_byte_for_byte(self, visits_spec):
        # through the library and through the per-line reference reader
        # and writer, in every combination
        space = visits_spec.space
        writers = (trajectory_to_jsonl, reference_trajectory_to_jsonl)
        readers = (trajectory_from_jsonl, reference_trajectory_from_jsonl)
        for traj in simulate_batch(visits_spec, uniform_distribution(space), 50.0, 9, 3):
            text = trajectory_to_jsonl(traj, space)
            for read in readers:
                back = read(text, space)
                assert back == traj
                assert [write(back, space) for write in writers] == [text, text]

    @pytest.mark.parametrize("traj", [[5], 5, None])
    def test_trajectory_writer_takes_only_a_trajectory(self, cycle3_spec, traj):
        message = f"trajectories must be Trajectory instances, not {traj!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trajectory_to_jsonl(traj, cycle3_spec.space)

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
