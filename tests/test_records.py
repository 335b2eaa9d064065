"""The public records: `State`, `RankReport`, `TransversalityReport`,
`ControlSolve` and `Trajectory`.

Their reprs are pinned by one SHA-256 over the views, `rk4_step` and
`integrate` on the three boats, gen4 and gen5, taken when the records
were frozen dataclasses; the golden files and every repr pin read them.
A record is an immutable tuple: it unpacks, hashes and compares as the
tuple of its fields, and `State` checks its entries on every way of
making one.
"""

import hashlib
import random

import pytest
from test_control import build_gen4, build_gen5

from vnhc import (
    FIXTURE_CURRENTS,
    ControlSolve,
    RankReport,
    State,
    Trajectory,
    TransversalityReport,
    build_boat,
    closed_loop_acceleration,
    integrate,
    p_matrix,
    project_onto_A,
    rk4_step,
    solve_control,
    tau_star,
    transversality_check,
)

SYSTEMS = {name: (lambda c=c: build_boat(*c)) for name, c in FIXTURE_CURRENTS.items()}
SYSTEMS.update(gen4=build_gen4, gen5=build_gen5)

# SHA-256 of `record_reprs()`, each repr followed by "\0".
REPRS_SHA256 = "d9b96c661d51a452a798a61e83a127f565bc3d72e8c6b2dd90acaf08a6433ddf"


def record_reprs() -> list[str]:
    """The repr of each view's result, or its error's type and message, at
    20 seeded states per system; entries are drawn from 0.0, -0.0 and
    uniform values."""
    out = []
    for name, build in SYSTEMS.items():
        model, con = build()
        rng = random.Random(f"records-{name}")

        def draw(bound):
            return tuple(rng.choice((0.0, -0.0, rng.uniform(-bound, bound)))
                         for _ in range(model.n))

        for _ in range(20):
            q, qd = draw(2.0), draw(1.5)
            s = State(q=q, qdot=qd)
            for call in (lambda: s, lambda: con.rank_check(q),
                         lambda: transversality_check(con, model, q),
                         lambda: p_matrix(model, con, q), lambda: solve_control(model, con, s),
                         lambda: tau_star(model, con, s),
                         lambda: closed_loop_acceleration(model, con, s),
                         lambda: project_onto_A(con, model, s), lambda: rk4_step(model, con, s, 1e-2),
                         lambda: integrate(model, con, s, t_end=0.05, h=1e-2, sample_every=2)):
                try:
                    out.append(repr(call()))
                except Exception as err:  # noqa: BLE001 - the error is the result
                    out.append(f"{type(err).__name__}: {err}")
    return out


def test_reprs_are_unchanged():
    reprs = record_reprs()
    assert len(reprs) == 10 * 20 * len(SYSTEMS)
    assert hashlib.sha256("".join(r + "\0" for r in reprs).encode()).hexdigest() == REPRS_SHA256


def records() -> list:
    model, con = build_boat(*FIXTURE_CURRENTS["vortex"])
    s = State(q=(0.1, -0.2, 0.5), qdot=(0.4, 0.3, 0.8))
    return [s, con.rank_check(s.q), transversality_check(con, model, s.q),
            solve_control(model, con, s), integrate(model, con, s, t_end=0.02, h=1e-2)]


def test_record_types():
    assert list(map(type, records())) == [State, RankReport, TransversalityReport,
                                         ControlSolve, Trajectory]


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = next(iter(repr(record).split("(", 1)[1].split("=", 1)))
    with pytest.raises(AttributeError):
        setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, name) == getattr(record, name)


def test_records_are_tuples():
    s = State(q=(1.0, 2.0), qdot=(3.0, 4.0))
    q, qd = s
    assert (q, qd) == s == ((1.0, 2.0), (3.0, 4.0))
    assert isinstance(s, tuple) and (s.q, s.qdot) == (q, qd)
    for record in records()[1:]:
        assert isinstance(record, tuple)
        assert record == tuple(record) and repr(record) == repr(type(record)(*record))


def test_state_hashes_as_its_fields():
    q, qd = (0.1, -0.0, 2.0), (1.0, 0.5, -3.0)
    s = State(q=q, qdot=qd)
    assert hash(s) == hash((q, qd))
    assert hash(State(q=[0.1, 0, 2], qdot=(1, 0.5, -3))) == hash(((0.1, 0.0, 2.0), qd))
    assert {s: 1}[State(q, qd)] == 1


def test_state_converts_its_entries():
    s = State(q=[1, 2], qdot=iter([3, 4.5]))
    assert repr(s) == "State(q=(1.0, 2.0), qdot=(3.0, 4.5))"
    assert type(s.q) is tuple and type(s.q[0]) is float


# Each way of making a State, from (q, qdot).
MAKERS = {
    "positional": lambda q, qd: State(q, qd),
    "keywords": lambda q, qd: State(q=q, qdot=qd),
    "make": lambda q, qd: State._make((q, qd)),
    "replace": lambda q, qd: State(q=(0.0,), qdot=(0.0,))._replace(q=q, qdot=qd),
}


@pytest.mark.parametrize("maker", MAKERS)
@pytest.mark.parametrize("q, qd, message", [
    ((0.0, 1.0), (1.0,), "q and qdot dimensions differ"),
    ((0.0, float("nan")), (1.0,), "q and qdot dimensions differ"),
    ((0.0, float("nan")), (1.0, 2.0), "non-finite state entry"),
    ((0.0, 1.0), (float("-inf"), 2.0), "non-finite state entry"),
    ((1e308 * 10,), (0.0,), "non-finite state entry"),
])
def test_state_errors_on_every_path(maker, q, qd, message):
    with pytest.raises(ValueError) as err:
        MAKERS[maker](q, qd)
    assert str(err.value) == message


@pytest.mark.parametrize("maker", MAKERS)
def test_state_makers_agree(maker):
    s = MAKERS[maker]([1, -0.0], (2, 3))
    assert repr(s) == "State(q=(1.0, -0.0), qdot=(2.0, 3.0))"
    assert type(s) is State


def test_state_replace_checks_the_other_field_too():
    s = State(q=(1.0, 2.0), qdot=(3.0, 4.0))
    with pytest.raises(ValueError, match="^q and qdot dimensions differ$"):
        s._replace(qdot=(1.0,))
    with pytest.raises(ValueError, match="^non-finite state entry$"):
        s._replace(q=(float("inf"), 0.0))
    assert repr(s._replace(q=[1, -0.0])) == "State(q=(1.0, -0.0), qdot=(3.0, 4.0))"
