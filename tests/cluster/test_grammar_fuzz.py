"""Fuzzing of the CLI string grammars: fleet events, admission and autoscaler
arguments, and the cluster sweep flags.

Every token list must either build or fail with a :class:`ReproError`
subclass (the CLI turns those into a clean usage error); any other exception
would surface as a traceback.  Tokens are drawn from the real vocabulary —
actions, policy and capacity-mix names and constructor parameter names —
with numeric, non-finite and garbage values, plus free text.
"""

import inspect
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ADMISSION_POLICIES,
    AUTOSCALERS,
    CAPACITY_MIXES,
    DISPATCH_POLICIES,
    build_admission,
    build_autoscaler,
    make_cluster,
    parse_fleet_events,
    resolve_capacities,
)
from repro.errors import ReproError
from repro.experiments import get_preset

NUMBERS = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(0.0, 2.0).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["inf", "-inf", "nan", "1e400", "0", "-0.0", "2.5"]),
)
GARBAGE = st.text(alphabet="az09=:@,.-_ ", max_size=8)
VALUES = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, min_size=1, max_size=3).map(",".join),
    GARBAGE,
)
BANDS = st.lists(st.tuples(NUMBERS, NUMBERS).map(":".join), min_size=1, max_size=3).map(
    ",".join
)


def _parameters(factory):
    """Keyword parameters of ``factory`` and of the base initialisers its
    ``**kwargs`` reach."""
    names = set()
    for cls in factory.__mro__:
        if "__init__" in vars(cls) and cls is not object:
            for param in inspect.signature(cls.__init__).parameters.values():
                if param.kind in (param.POSITIONAL_OR_KEYWORD, param.KEYWORD_ONLY):
                    names.add(param.name)
    names.discard("self")
    return sorted(names)


def _policy_args(registry):
    """A policy name (or an unknown one) with tokens keyed by its own
    parameters, weighted toward well-formed ``key=value`` tokens."""

    def tokens_for(name):
        params = _parameters(registry[name]) if name in registry else ["x"]
        keyed = st.tuples(st.sampled_from(params + ["bands"]), st.one_of(VALUES, BANDS))
        token = st.one_of(keyed.map("=".join), keyed.map("=".join), GARBAGE)
        return st.tuples(st.just(name), st.lists(token, max_size=3))

    return st.sampled_from(sorted(registry) + ["unknown"]).flatmap(tokens_for)


NODES = st.integers(0, 12).map(str)
TIMES = st.one_of(NUMBERS, st.sampled_from(["inf", "-inf", "nan"])).map("@{}".format)
FLEET_TOKENS = st.one_of(
    st.builds(
        "{}:{}{}".format, st.sampled_from(["join", "leave", "kill", "restore"]), NODES, TIMES
    ),
    st.builds(
        "{}:{}={}{}".format,
        st.sampled_from(["set_capacity", "degrade", "capacity"]),
        NODES,
        st.one_of(st.sampled_from(["none", "unconstrained"]), VALUES),
        TIMES,
    ),
    NODES.map("down:{}".format),
    GARBAGE,
)


def _builds_or_repro_error(build, *args):
    try:
        return build(*args)
    except ReproError:
        return None


@settings(max_examples=300, deadline=None)
@given(st.lists(FLEET_TOKENS, max_size=4))
def test_fleet_event_tokens(tokens):
    schedule = _builds_or_repro_error(parse_fleet_events, tokens)
    if schedule is not None:
        # Every event that builds can fire: its time is finite and >= 0.
        assert all(math.isfinite(event.time) and event.time >= 0.0 for event in schedule.events)


@settings(max_examples=300, deadline=None)
@given(_policy_args(ADMISSION_POLICIES))
def test_admission_arguments(case):
    _builds_or_repro_error(build_admission, *case)


@settings(max_examples=300, deadline=None)
@given(_policy_args(AUTOSCALERS))
def test_autoscaler_arguments(case):
    _builds_or_repro_error(build_autoscaler, *case)


#: ``--capacities`` tokens: relative speeds, mix names and garbage, mixed.
CAPACITY_TOKENS = st.lists(
    st.one_of(NUMBERS, st.sampled_from(sorted(CAPACITY_MIXES) + ["3:1"]), GARBAGE),
    min_size=1,
    max_size=4,
)
#: ``--cluster-nodes`` counts, including fractional and non-finite ones.
NODE_COUNTS = st.lists(
    st.one_of(st.integers(-1, 6), st.floats(allow_nan=True, allow_infinity=True)),
    min_size=1,
    max_size=3,
)
DISPATCH_NAMES = st.lists(
    st.sampled_from(sorted(DISPATCH_POLICIES) + ["unknown"]), min_size=1, max_size=3
)


@settings(max_examples=300, deadline=None)
@given(CAPACITY_TOKENS, st.none() | NODE_COUNTS, st.none() | DISPATCH_NAMES)
@example(["1e-300", "1e300"], None, None)
@example(["2", "1"], [2.5], None)
def test_cluster_flags(capacities, nodes, policies):
    # The CLI's reading of ``--capacities``: all numeric tokens are one
    # explicit mix of relative speeds, anything else a list of mix names.
    try:
        mixes = (tuple(float(token) for token in capacities),)
    except ValueError:
        mixes = tuple(capacities)
    config = _builds_or_repro_error(
        lambda: get_preset("quick").with_cluster(
            nodes=nodes, policies=policies, capacity_mixes=mixes
        )
    )
    if config is None:
        return
    assert all(isinstance(n, int) and n >= 1 for n in config.cluster_nodes)
    if nodes is not None:
        assert list(config.cluster_nodes) == nodes
    for mix in config.capacity_mixes:
        if not isinstance(mix, str):
            make_cluster(len(mix), capacities=resolve_capacities(mix, len(mix)))
