"""Load user-defined systems from a structured text (JSON) definition.

The schema covers constant-matrix plants with polynomial position constraints:

    {
      "name": "my-pendulum",
      "n": 2,
      "mass": [[1, 0], [0, 1]],          # or {"diag": [1, 1]}
      "gravity_force": [0, -9.81],
      "input_map": [[1, 0], [0, 1]],     # optional, n rows, default identity
      "constraints": [
        {"terms": [{"coeff": 1, "powers": [2, 0]},
                   {"coeff": 1, "powers": [0, 2]},
                   {"coeff": -1, "powers": [0, 0]}]}
      ]
    }

Each constraint is a polynomial Phi_i(q) = sum coeff * prod q_j^powers[j];
the constraint matrix A = dPhi/dq and its rate Adot are differentiated
analytically, so loaded systems get exact Jacobians like the built-in ones.
C is zero (constant mass matrix), consistent with the schema's scope.
"""

from __future__ import annotations

import json

import numpy as np

from .systems import MechanicalSystem, _constant_plant


class Polynomial:
    """Multivariate polynomial as a list of (coeff, exponent-tuple) terms."""

    def __init__(self, terms, nvars):
        self.nvars = nvars
        self.terms = [(float(c), tuple(int(p) for p in pw)) for c, pw in terms]
        for _, pw in self.terms:
            if len(pw) != nvars:
                raise ValueError("powers length must equal n")

    def __call__(self, q):
        total = 0.0
        for c, pw in self.terms:
            val = c
            for j, p in enumerate(pw):
                if p:
                    val *= q[j] ** p
            total += val
        return total

    def derivative(self, var):
        terms = []
        for c, pw in self.terms:
            p = pw[var]
            if p:
                new = list(pw)
                new[var] = p - 1
                terms.append((c * p, tuple(new)))
        return Polynomial(terms, self.nvars)


def _poly_from_spec(spec, n, what):
    try:
        return Polynomial([(t["coeff"], t["powers"]) for t in spec["terms"]], n)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f'{what} must be {{"terms": [{{"coeff": number, "powers": '
                         f'[{n} integers]}}, ...]}}, got {spec!r}') from exc


def load_system(source) -> MechanicalSystem:
    """Build a MechanicalSystem from a definition dict, JSON string, or path."""
    if isinstance(source, dict):
        spec = source
    else:
        text = str(source)
        if text.lstrip().startswith("{"):
            spec = json.loads(text)
        else:
            with open(text) as fh:
                spec = json.load(fh)

    n = int(spec["n"])
    mass_spec = spec["mass"]
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
    phis = [_poly_from_spec(c, n, f"constraints[{i}]") for i, c in enumerate(constraints)]
    m = len(phis)
    grads = [[phi.derivative(j) for j in range(n)] for phi in phis]
    hessians = [[[g.derivative(l) for l in range(n)] for g in row] for row in grads]

    def constraint(q):
        if m == 0:
            return np.zeros((1, n))
        return np.array([[g(q) for g in row] for row in grads])

    def constraint_rate(q, qd):
        if m == 0:
            return np.zeros((1, n))
        out = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                out[i, j] = sum(hessians[i][j][l](q) * qd[l] for l in range(n))
        return out

    def residual(q):
        return np.array([phi(q) for phi in phis])

    # potential consistent with a constant conservative force: U = -f_g . q
    def potential(q):
        return -float(f_g @ np.asarray(q, dtype=float))

    return MechanicalSystem(
        name=str(spec.get("name", "user-system")),
        n=n, m=max(m, 1),
        **_constant_plant(M, np.zeros((n, n)), f_g, B),
        constraint=constraint,
        constraint_rate=constraint_rate,
        residual=residual if m else None,
        potential=potential,
    )
