"""Every catalog id fails under some perturbation of a layer it reads.

tests/test_rows.py pins the sweeps of most ids under a perturbed class-sum
kernel or lowered orders.  The ids below read layers those pins leave
alone, or read them on other slices: each is swept over a small slice of
its default grid with one layer perturbed, and the failure count and the
digest of every (instance, result) pair are pinned, or the message of the
InternalInvariantError the sweep raised.  Each slice passes unperturbed.
A last test holds the catalog to having such a pin for every id.
"""

from __future__ import annotations

import pytest

from flecklab import statements
from flecklab.statements import SEARCHES, STATEMENTS
from test_rows import (
    CARRIES_RAISED,
    FOLD_PERTURBED,
    LOWERED_PINNED,
    PERTURBED,
    RATIONAL_PINNED,
    WEISMAN_BROKEN,
    WEISMAN_PERTURBED,
    _bumped,
    _swept,
    kernel,  # noqa: F401  (the fixture)
)

CATALOG = {**STATEMENTS, **SEARCHES}

_int_order = statements._int_order
_factorial_order = statements._factorial_order
_harmonic_orders = statements._harmonic_orders


def _orders_lowered(monkeypatch, kernel):
    monkeypatch.setattr(statements, "_int_order", lambda p, x: _int_order(p, x) - 1)


def _factorial_orders_lowered(monkeypatch, kernel):
    monkeypatch.setattr(statements, "_factorial_order", lambda p, n: _factorial_order(p, n) - 1)


def _harmonic_orders_lowered(monkeypatch, kernel):
    # A uniform _int_order shift cancels in L3.1's difference of orders.
    monkeypatch.setattr(
        statements,
        "_harmonic_orders",
        lambda m, n, r: [(q, o - 1) for q, o in _harmonic_orders(m, n, r)],
    )


def _kernel_bumped(monkeypatch, kernel):
    kernel(_bumped)


MUTANTS = [
    (
        "T1.8", _orders_lowered, {"alpha": (1, 2), "n": tuple(range(20))},
        (102, "54ee498deb94ec5e35173589e388ffbfd6ee00538cff239ca2f6dffe9fe6c8b2"),
    ),
    (
        "C1.2cor", _orders_lowered, {"alpha": (2, 3), "n": tuple(range(12))},
        (119, "8678ead776b3dbfdb9f216f8e3d0579bdf4eed5deb0d9d78c076950ed7f3eb2d"),
    ),
    (
        "L4.2", _orders_lowered, {"alpha": (1, 2)},
        (120, "ca4199ac985146852ffb2648edc7448157ebcf932a551f1e245789b489263049"),
    ),
    (
        "T4.1", _orders_lowered, {"alpha": (1, 2), "c": (0, 1, 2)},
        (364, "1e3a5656d08eedd8431853d7351a2df0b2d0b8087b01ccd1d294ac44ab749a2d"),
    ),
    (
        "L4.1", _factorial_orders_lowered, {"p": (2, 3), "q": (0, 1, 2, 3)},
        (12, "865980ff059796fc5ee1646600a3d83853e420dfd02f3f6c90c2d0320bd7ba48"),
    ),
    (
        "L3.1", _harmonic_orders_lowered, {"m": tuple(range(1, 7)), "n": tuple(range(1, 9))},
        (126, "5b2dbd196930ca7263b5a51e18b276f243fb2f8975fd13829590c8eeb21f01b6"),
    ),
    (
        "L2.3", _kernel_bumped, {"d": (1, 2, 3), "m": (1, 2, 3), "n": tuple(range(5))},
        (508, "813e0f843c16b6332067f1dee57b13eb20b8bfc943ecf0810412890479021b1e"),
    ),
    (
        "R1.6", _kernel_bumped, {"n": tuple(range(5)), "l": tuple(range(6))},
        (5, "966d47dee2abbaa7ed1cfb935131b01786e81ea6a6576bdbc84f72fa382bd413"),
    ),
    (
        "L2.4", _kernel_bumped, {"p": (2, 3), "alpha": (1, 2), "n": tuple(range(4))},
        ("raised", "normalized sum is not p-integral at (p=2, alpha=1, l=0, n=2, r=-2)"),
    ),
]


@pytest.mark.parametrize(
    "sid, perturb, grid, expected", MUTANTS, ids=[f"{c[0]}{c[1].__name__}" for c in MUTANTS]
)
def test_perturbed_layer_fails_as_pinned(monkeypatch, kernel, sid, perturb, grid, expected):
    st = CATALOG[sid]
    assert _swept(st, grid)[0] == 0
    perturb(monkeypatch, kernel)
    assert _swept(st, grid) == expected


def test_every_catalog_id_has_a_failing_pin():
    # Pins whose every case is a failure: the perturbed row-and-check
    # comparisons assert their failure branches ran, and the broken
    # Weisman divisibility raises.
    failing = {c[0] for c in [*PERTURBED, *FOLD_PERTURBED, *WEISMAN_BROKEN]}
    # Pins by failure count (the count at index -2), which may be 0.
    pinned = [*WEISMAN_PERTURBED, *RATIONAL_PINNED, *LOWERED_PINNED, *CARRIES_RAISED]
    failing |= {c[0] for c in pinned if c[-2]}
    failing |= {sid for sid, _, _, (head, _) in MUTANTS if head == "raised" or head > 0}
    assert set(CATALOG) - failing == set()
