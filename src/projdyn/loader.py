"""The one reader of JSON definitions: load_system builds a system,
load_scenario a run, as `projdyn simulate --scenario-file` reads it:

    {
      "system": {                        # or a catalog name: "pendulum"
        "name": "my-pendulum",           # optional text
        "n": 2,                          # a positive integer
        "mass": [[1, 0], [0, 1]],        # or {"diag": [1, 1]}
        "gravity_force": [0, -9.81],     # optional, default zeros
        "input_map": [[1], [0]],         # optional: n rows or one column, default I
        "constraints": [                 # optional, default none
          {"terms": [{"coeff": 1, "powers": [2, 0]},
                     {"coeff": 1, "powers": [0, 2]},
                     {"coeff": -1, "powers": [0, 0]}]}]},
      "q0": [1, 0],
      "qdot0": [0, 0],                   # optional, default zeros
      "horizon": 10, "dt": 0.001,        # optional, defaults in RUN
      "mu": "auto",                      # optional, or a positive number
      "controller": {"q_star": [0.84, -0.54],         # optional, null: none
                     "kp": 10, "kd": 10, "sigma": 1.5},  # defaults in GAINS
      "initial_active": [],              # optional, default every row
      "events": [[1.0, [0]]]             # optional [time, active rows] pairs
    }

Numbers are finite JSON numbers (not true, false, text, NaN or Infinity),
and powers non-negative integers.  A missing field not marked optional, or
an unknown key, is a ValueError that names the field's path, such as
constraints[1].terms[0].coeff.  q_star is retracted onto the constraint
manifold, as `simulate --target` is.

Each constraint is a polynomial Phi_i(q) = sum coeff * prod q_j^powers[j];
the constraint matrix A = dPhi/dq and its rate Adot are differentiated
analytically, so loaded systems get exact Jacobians like the built-in
ones.  Phi, its gradients and its Hessians are each one compiled
Polynomial, so Phi, A and Adot take a few numpy calls per state.  C is zero
(constant mass matrix), consistent with the schema's scope.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from .control import RegulationGains, SetpointRegulator
from .engine import Scenario, project_to_constraints
from .systems import MechanicalSystem, _constant_plant, get_system


class Polynomial:
    """Polynomials p_0 ... p_{K-1} in n variables, evaluated together.

    Each p_k is a list of (coeff, exponent-tuple) terms.  They are compiled
    to arrays: every term's coefficient, the indices of its factors and the
    k it belongs to.  At q a term is its coefficient times one factor per
    variable with a nonzero exponent, left to right: q_j for exponent 1 and
    the scalar q_j ** p for any other p, padded with 1.0 to the longest
    term, which changes no bit.  np.bincount then adds each polynomial's
    terms in order, starting from 0.0.  So each value has the bits of
    summing that polynomial's terms one by one in Python scalars.
    """

    def __init__(self, polys, nvars):
        self.nvars = nvars
        self.polys = polys
        terms = [(k, c, pw) for k, poly in enumerate(polys) for c, pw in poly]
        # the scalar powers q_j ** p, p not 0 or 1, that some term takes; a
        # factor is an index into (q, 1.0, those powers)
        self.powers = sorted({(j, p) for _, _, pw in terms for j, p in enumerate(pw)
                              if p not in (0, 1)})
        slot = {jp: nvars + 1 + i for i, jp in enumerate(self.powers)}
        factors = [[j if p == 1 else slot[j, p] for j, p in enumerate(pw) if p]
                   for _, _, pw in terms]
        depth = max(map(len, factors), default=0)
        self.gather = np.array([f + [nvars] * (depth - len(f)) for f in factors],
                               dtype=np.intp).reshape(len(terms), depth).T
        self.coeff = np.array([c for _, c, _ in terms], dtype=float)
        self.index = np.array([k for k, _, _ in terms], dtype=np.intp)

    def __call__(self, q):
        """The values p_0(q) ... p_{K-1}(q)."""
        q = np.asarray(q, dtype=float)
        powers = [q[j] ** p for j, p in self.powers]
        values = np.concatenate((q, _ONE, powers) if powers else (q, _ONE))
        terms = self.coeff
        for index in self.gather:
            terms = terms * values[index]
        return np.bincount(self.index, weights=terms, minlength=len(self.polys))

    def jacobian(self):
        """The polynomials dp_k/dq_j, for each k the n of them in order of j."""
        return Polynomial([[(c * pw[j], pw[:j] + (pw[j] - 1,) + pw[j + 1:])
                            for c, pw in terms if pw[j]]
                           for terms in self.polys for j in range(self.nvars)], self.nvars)


_ONE = np.ones(1)


def _is_number(value) -> bool:
    """Whether a JSON value is a number (JSON true and false are not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what) -> float:
    """A finite JSON number, as a float."""
    if not _is_number(value):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def _list(value, what, kind, n=None, is_item=lambda item: True) -> list:
    """A JSON list, of n items if n is given, that pass is_item; kind names it."""
    if not (isinstance(value, list) and all(map(is_item, value))):
        raise ValueError(f"{what} must be {kind}, got {value!r}")
    if n is not None and len(value) != n:
        raise ValueError(f"{what} must have {n} components, got {len(value)}")
    return value


def _vector(value, n, what) -> np.ndarray:
    """A JSON list of n finite numbers, as a float array."""
    _list(value, what, "a list of numbers", n, _is_number)
    return np.array([_number(v, f"{what}[{i}]") for i, v in enumerate(value)])


def _matrix(value, n, what) -> np.ndarray:
    """A JSON list of n equal-length rows of finite numbers, or of n numbers (a column)."""
    rows = _list(value, what, "a list of rows", n)
    if all(map(_is_number, rows)):
        return _vector(rows, n, what)[:, None]
    k = len(rows[0]) if isinstance(rows[0], list) else 0
    return np.array([_vector(row, k, f"{what}[{i}]") for i, row in enumerate(rows)])


def _object(value, what, required, optional=()) -> dict:
    """A JSON object with every required key and none outside required and optional."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    if unknown := [key for key in value if key not in required and key not in optional]:
        raise ValueError(f"unknown key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))} in {what}; "
                         f"known: {', '.join((*required, *optional))}")
    if missing := [key for key in required if key not in value]:
        raise ValueError(f"{what} is missing the required field {missing[0]!r}")
    return value


def _terms(spec, n, what) -> list:
    """The (coeff, powers) terms of one polynomial constraint."""
    terms = _object(spec, what, ("terms",))["terms"]
    read = []
    for j, term in enumerate(_list(terms, f"{what}.terms", "a list of terms")):
        path = f"{what}.terms[{j}]"
        _object(term, path, ("coeff", "powers"))
        read.append((_number(term["coeff"], f"{path}.coeff"),
                     # a JSON integer is an int, never a bool
                     tuple(_list(term["powers"], f"{path}.powers",
                                 "a list of non-negative integers", n,
                                 lambda p: type(p) is int and p >= 0))))
    return read


def load_system(source) -> MechanicalSystem:
    """Build a MechanicalSystem from a definition: a dict or its JSON text."""
    spec = json.loads(source) if isinstance(source, str) else source
    _object(spec, "a system definition", ("n", "mass"),
            ("name", "gravity_force", "input_map", "constraints"))
    if not isinstance(name := spec.get("name", "user-system"), str):
        raise ValueError(f"name must be text, got {name!r}")
    if not (type(n := spec["n"]) is int and n > 0):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    mass = spec["mass"]
    if isinstance(mass, dict):
        M = np.diag(_vector(_object(mass, "mass", ("diag",))["diag"], n, "mass.diag"))
    else:
        M = _matrix(mass, n, "mass")
    if M.shape != (n, n) or not np.allclose(M, M.T):
        raise ValueError("mass must be a symmetric n x n matrix")
    if np.linalg.eigvalsh(M)[0] <= 0.0:
        raise ValueError("mass matrix must be positive definite")
    f_g = _vector(spec.get("gravity_force", [0.0] * n), n, "gravity_force")
    B = _matrix(spec["input_map"], n, "input_map") if "input_map" in spec else np.eye(n)

    constraints = _list(spec.get("constraints", []), "constraints", "a list of polynomials")
    # without constraints A and Adot are one zero row: a polynomial of no terms
    phi = Polynomial([_terms(c, n, f"constraints[{i}]") for i, c in enumerate(constraints)]
                     or [[]], n)
    m = len(phi.polys)
    # A[i, j] = dPhi_i/dq_j; Adot[i, j] is the sum over l of H[i, j, l] qd_l,
    # added in order of l by a second bincount
    gradient = phi.jacobian()
    hessian = gradient.jacobian()
    rows = np.repeat(np.arange(m * n), n)

    def constraint(q):
        return gradient(q).reshape(m, n)

    def constraint_rate(q, qd):
        H = hessian(q).reshape(m * n, n) * np.asarray(qd, dtype=float)
        return np.bincount(rows, weights=H.ravel(), minlength=m * n).reshape(m, n)

    # potential consistent with a constant conservative force: U = -f_g . q
    def potential(q):
        return -float(f_g @ np.asarray(q, dtype=float))

    return MechanicalSystem(
        name=name, n=n, m=m,
        plant_at=_constant_plant(M, np.zeros((n, n)), f_g, B),
        constraint=constraint,
        constraint_rate=constraint_rate,
        residual=phi if constraints else None,
        potential=potential,
    )


# a run's settings and the regulator's gains where neither a scenario
# definition nor simulate's flags set them; mu defaults as in Scenario
RUN = {"horizon": 10.0, "dt": 1e-3, "mu": Scenario.mu}
GAINS = {"kp": 10.0, "kd": 10.0, "sigma": 1.5}


def regulator(system, q_star, kp, kd, sigma) -> SetpointRegulator:
    """The regulator to q_star (n floats), retracted onto the constraint
    manifold when the system has a position residual."""
    if system.residual is not None:
        q_star = project_to_constraints(q_star, system)
    # not gain * I, whose inf * 0 would warn before RegulationGains names the gain
    Kp, Kd = (np.diag(np.full(system.n, gain)) for gain in (kp, kd))
    return SetpointRegulator(q_star, RegulationGains(Kp=Kp, Kd=Kd, sigma=sigma))


def load_scenario(source) -> Scenario:
    """Build a Scenario from a definition: a dict or its JSON text."""
    spec = json.loads(source) if isinstance(source, str) else source
    if not isinstance(spec, dict):
        raise ValueError(f"a scenario file must hold a JSON object, got {spec!r}")
    _object(spec, "a scenario file", ("system", "q0"),
            ("qdot0", *RUN, "controller", "events", "initial_active"))
    system = spec["system"]
    try:
        system = get_system(system) if isinstance(system, str) else load_system(system)
    except KeyError as exc:     # get_system's unknown name
        raise ValueError(f"system: {exc.args[0]}") from None
    controller = spec.get("controller")
    if controller is not None:
        c = _object(controller, "controller", ("q_star",), GAINS)
        controller = regulator(system, _vector(c["q_star"], system.n, "controller q_star"),
                               *(_number(c.get(key, default), f"controller {key}")
                                 for key, default in GAINS.items()))
    events = []
    for i, event in enumerate(_list(spec.get("events", []), "events",
                                    "a list of [time, rows] pairs")):
        t, rows = _list(event, f"events[{i}]", "a [time, rows] pair", 2)
        events.append((_number(t, f"events[{i}] time"),
                       tuple(_list(rows, f"events[{i}] active set", "a list of row indices"))))
    return Scenario(
        system=system,
        q0=_vector(spec["q0"], system.n, "q0"),
        qdot0=_vector(spec.get("qdot0", [0.0] * system.n), system.n, "qdot0"),
        horizon=_number(spec.get("horizon", RUN["horizon"]), "horizon"),
        dt=_number(spec.get("dt", RUN["dt"]), "dt"),
        mu=spec.get("mu", RUN["mu"]),
        controller=controller,
        events=tuple(events),
        initial_active=(tuple(_list(spec["initial_active"], "initial_active",
                                    "a list of row indices"))
                        if "initial_active" in spec else None),
    )
