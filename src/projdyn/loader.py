"""Load user-defined systems from a structured text (JSON) definition.

The schema covers constant-matrix plants with polynomial position constraints:

    {
      "name": "my-pendulum",
      "n": 2,                            # a positive integer
      "mass": [[1, 0], [0, 1]],          # or {"diag": [1, 1]}
      "gravity_force": [0, -9.81],
      "input_map": [[1, 0], [0, 1]],     # optional, n rows, default identity
      "constraints": [
        {"terms": [{"coeff": 1, "powers": [2, 0]},
                   {"coeff": 1, "powers": [0, 2]},
                   {"coeff": -1, "powers": [0, 0]}]}
      ]
    }

A key outside this schema is an error, not ignored.  Each constraint is a
polynomial Phi_i(q) = sum coeff * prod q_j^powers[j]; the constraint
matrix A = dPhi/dq and its rate Adot are differentiated analytically, so
loaded systems get exact Jacobians like the built-in ones.  Phi, its
gradients and its Hessians are each one compiled Polynomial, so Phi, A and
Adot take a few numpy calls per state.  C is zero (constant mass matrix),
consistent with the schema's scope.
"""

from __future__ import annotations

import json

import numpy as np

from .systems import MechanicalSystem, _constant_plant


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
        self.polys = [[(float(c), tuple(int(p) for p in pw)) for c, pw in terms]
                      for terms in polys]
        terms = [(k, c, pw) for k, poly in enumerate(self.polys) for c, pw in poly]
        if any(len(pw) != nvars for _, _, pw in terms):
            raise ValueError("powers length must equal n")
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


def _terms_from_spec(spec, n, what):
    """The (coeff, powers) terms of one constraint of a definition, checked
    as Polynomial checks them, so that an error names the constraint."""
    try:
        terms = [(t["coeff"], t["powers"]) for t in spec["terms"]]
        Polynomial([terms], n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f'{what} must be {{"terms": [{{"coeff": number, "powers": '
                         f'[{n} integers]}}, ...]}}, got {spec!r}') from exc
    return terms


def _required(spec, key, what):
    """spec[key], or a ValueError that names the missing field."""
    try:
        return spec[key]
    except KeyError:
        raise ValueError(f"{what} is missing the required field {key!r}") from None


def _known(spec, keys, what):
    """A ValueError that names each key of spec outside keys, if there is one."""
    if unknown := [key for key in spec if key not in keys]:
        raise ValueError(f"unknown key{'s' * (len(unknown) > 1)} "
                         f"{', '.join(map(repr, unknown))} in {what}; "
                         f"known: {', '.join(keys)}")


_SYSTEM_KEYS = ("name", "n", "mass", "gravity_force", "input_map", "constraints")


def load_system(source) -> MechanicalSystem:
    """Build a MechanicalSystem from a definition: a dict or its JSON text."""
    spec = json.loads(source) if isinstance(source, str) else source
    if not isinstance(spec, dict):
        raise ValueError(f"a system definition must be a JSON object, got {spec!r}")
    _known(spec, _SYSTEM_KEYS, "a system definition")
    n = _required(spec, "n", "a system definition")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    mass_spec = _required(spec, "mass", "a system definition")
    if isinstance(mass_spec, dict) and "diag" in mass_spec:
        M = np.diag(np.asarray(mass_spec["diag"], dtype=float))
    else:
        M = np.asarray(mass_spec, dtype=float)
    if M.shape != (n, n) or not np.allclose(M, M.T):
        raise ValueError("mass must be a symmetric n x n matrix")
    if np.linalg.eigvalsh(M)[0] <= 0.0:
        raise ValueError("mass matrix must be positive definite")
    f_g = np.asarray(spec.get("gravity_force", np.zeros(n)), dtype=float)
    if f_g.shape != (n,):
        raise ValueError(f"gravity_force must have shape ({n},), got {f_g.shape}")
    B = np.asarray(spec.get("input_map", np.eye(n)), dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or B.shape[0] != n:
        raise ValueError(f"input_map must have {n} rows, got shape {B.shape}")

    constraints = spec.get("constraints", [])
    if not isinstance(constraints, list):
        raise ValueError(f"constraints must be a list of polynomials, got {constraints!r}")
    phi = Polynomial([_terms_from_spec(c, n, f"constraints[{i}]")
                      for i, c in enumerate(constraints)], n)
    m = len(constraints)
    # A[i, j] = dPhi_i/dq_j; Adot[i, j] is the sum over l of H[i, j, l] qd_l,
    # added in order of l by a second bincount
    gradient = phi.jacobian()
    hessian = gradient.jacobian()
    rows = np.repeat(np.arange(m * n), n)

    def constraint(q):
        if m == 0:
            return np.zeros((1, n))
        return gradient(q).reshape(m, n)

    def constraint_rate(q, qd):
        if m == 0:
            return np.zeros((1, n))
        H = hessian(q).reshape(m * n, n) * np.asarray(qd, dtype=float)
        return np.bincount(rows, weights=H.ravel(), minlength=m * n).reshape(m, n)

    # potential consistent with a constant conservative force: U = -f_g . q
    def potential(q):
        return -float(f_g @ np.asarray(q, dtype=float))

    return MechanicalSystem(
        name=str(spec.get("name", "user-system")),
        n=n, m=max(m, 1),
        plant_at=_constant_plant(M, np.zeros((n, n)), f_g, B),
        constraint=constraint,
        constraint_rate=constraint_rate,
        residual=phi if m else None,
        potential=potential,
    )
