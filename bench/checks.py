"""Checks on the outputs of each benchmark operation.

Every reference value here is computed apart from quenchlab: closed-form
discrete eigenpairs, a quadrature of the first integral of the scalar steady
problem, the benchmark's own stencils, and comparison ODEs.  The rest are
properties the method must have (monotone quench profiles, positive
eigenfunctions, byte-identical reruns).  A check raises CheckError.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import quad
from scipy.optimize import minimize_scalar


class CheckError(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


class Artifacts:
    """The output directory and exit code of one operation."""

    def __init__(self, out: Path, rc: int):
        self.out = out
        self.rc = rc

    def json(self, name: str) -> dict:
        with open(self.out / name) as handle:
            return json.load(handle)

    def table(self, name: str) -> dict[str, list[str]]:
        """Columns of a CSV written by the CLI, as raw strings."""
        with open(self.out / name) as handle:
            require(handle.readline().startswith("# config: "), f"{name}: no config line")
            header = handle.readline().strip().split(",")
            rows = [line.strip().split(",") for line in handle if line.strip()]
        require(all(len(r) == len(header) for r in rows), f"{name}: ragged rows")
        return {key: [r[i] for r in rows] for i, key in enumerate(header)}

    def column(self, name: str, key: str) -> np.ndarray:
        return np.array([float(v) for v in self.table(name)[key]])

    def digests(self) -> dict[str, str]:
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.iterdir())}


# --- references computed apart from the program ------------------------------

def lambda1_closed_form(lengths, counts) -> float:
    """Smallest eigenvalue of the Dirichlet 3-point / 5-point Laplacian."""
    total = 0.0
    for length, n in zip(lengths, counts):
        h = length / (n + 1)
        total += 4.0 / h**2 * math.sin(math.pi * h / (2.0 * length)) ** 2
    return total


def scalar_fold_power2() -> float:
    """Fold of -w'' = lam (1-w)^-2 on (0,1), w(0)=w(1)=0.

    The first integral gives the half-length T(m) = int_0^m dw / sqrt(2 (P(m) -
    P(w))) with P(s) = s/(1-s) for the profile peaking at m, and lam(m) =
    4 T(m)^2.  Substituting w = m (1 - t^2) turns T into the smooth integral
    int_0^1 sqrt(2 m (1-m) (1-m+m t^2)) dt; the fold is the maximum over m.
    """
    def lam_of(m: float) -> float:
        t, _ = quad(lambda s: math.sqrt(2 * m * (1 - m) * (1 - m + m * s * s)), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13)
        return 4.0 * t * t

    res = minimize_scalar(lambda m: -lam_of(m), bounds=(0.05, 0.95), method="bounded",
                          options={"xatol": 1e-10})
    return -res.fun


def tridiagonal(n: int, h: float) -> sp.csr_matrix:
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr")


def laplacian_2d(nx: int, ny: int, hx: float, hy: float) -> sp.csr_matrix:
    """5-point Dirichlet Laplacian on fields ordered y outer, x inner."""
    return (sp.kron(sp.identity(ny), tridiagonal(nx, hx))
            + sp.kron(tridiagonal(ny, hy), sp.identity(nx))).tocsr()


def intercept_ceiling(n: int, length: float) -> float:
    """1/max(A^-1 1) on an interval: a steady state has w >= lam A^-1 1 and w < 1."""
    a = tridiagonal(n, length / (n + 1)).tocsc()
    return 1.0 / float(spla.spsolve(a, np.ones(n)).max())


def quench_window(lam: float, lam1: float) -> tuple[float, float]:
    """Bounds on the quench time of u=v from rest with f=g=(1-s)^-2.

    Lower: at the maximum, M' <= lam (1-M)^-2, so M needs 1/(3 lam) to reach 1.
    Upper: the eigenfunction mass m = int u phi obeys m' >= lam f(m) - lam1 m
    by Jensen, so it reaches 1 by int_0^1 dm / (lam (1-m)^-2 - lam1 m).
    """
    upper, _ = quad(lambda m: 1.0 / (lam * (1.0 - m) ** -2 - lam1 * m), 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-12)
    return 1.0 / (3.0 * lam), upper


def weighted_mass_bound(lam: float, amps: tuple[float, float], n: int) -> float:
    """Quench-time bound for f=g=1-ln(1-s), unit weights, u0 = amp sin(pi x).

    Uses the discrete sine eigenpair (phi_i = sin(pi x_i), exact for the
    3-point stencil) with unit mass: m' >= (lam f(0) - lam1 K / m) m with K =
    int phi = 1, which reaches the singularity by
    log((lam - lam1) / (lam - lam1 / m0)) / lam1.
    """
    h = 1.0 / (n + 1)
    x = h * np.arange(1, n + 1)
    phi = np.sin(np.pi * x)
    phi /= h * phi.sum()
    lam1 = lambda1_closed_form((1.0,), (n,))
    bounds = []
    for amp in amps:
        m0 = h * float(np.dot(amp * np.sin(np.pi * x), phi))
        require(m0 > lam1 / lam, "weighted mass bound is not applicable to these inputs")
        bounds.append(math.log((lam - lam1) / (lam - lam1 / m0)) / lam1)
    return min(bounds)


class Reference:
    """The per-run references of one workload, computed from its parameters."""

    def __init__(self, workload):
        self.p = workload.params

    @cached_property
    def fold(self) -> float:
        return scalar_fold_power2() / self.p["length"] ** 2

    @cached_property
    def ceiling(self) -> float:
        return intercept_ceiling(self.p["n"], self.p["length"])

    @cached_property
    def window(self) -> tuple[float, float]:
        return quench_window(self.p["lambda_simulate"],
                             lambda1_closed_form((1.0,), (self.p["n"],)))

    @cached_property
    def mass_bound(self) -> float:
        return weighted_mass_bound(self.p["lambda_certify"],
                                   (self.p["amp_u"], self.p["amp_v"]), self.p["n"])

    @cached_property
    def lambda1_2d(self) -> float:
        lengths = [hi - lo for lo, hi in self.p["extents"]]
        return lambda1_closed_form(lengths, self.p["n"])

    @cached_property
    def stencil_2d(self) -> tuple[sp.csr_matrix, int, int]:
        (ax, bx), (ay, by) = self.p["extents"]
        nx, ny = self.p["n"]
        return laplacian_2d(nx, ny, (bx - ax) / (nx + 1), (by - ay) / (ny + 1)), nx, ny


def fields_2d(art: Artifacts, names: tuple[str, str], file: str, nx: int, ny: int):
    """Two fields of a 2D CSV, reordered y outer, x inner by their coordinates."""
    x, y = art.column(file, "x"), art.column(file, "y")
    require(x.size == nx * ny, f"{file}: {x.size} rows, expected {nx * ny}")
    order = np.lexsort((x, y))
    return tuple(art.column(file, name)[order] for name in names)


def own_nu1(ref: Reference, w: np.ndarray, z: np.ndarray) -> float:
    """Smallest eigenvalue of the benchmark's own linearization at (w, z).

    The block operator has nonpositive off-diagonal entries, so its inverse
    is nonnegative and the principal eigenvalue is the one of least modulus:
    shift-invert Arnoldi about 0 finds it.
    """
    a, _, _ = ref.stencil_2d
    fz = 2.0 * ref.p["lambda"] * (1.0 - z) ** -3
    gw = 2.0 * ref.p["mu"] * (1.0 - w) ** -3
    m = sp.bmat([[a, sp.diags(-fz)], [sp.diags(-gw), a]], format="csc")
    vals = spla.eigs(m, k=1, sigma=0.0, which="LM", v0=np.ones(m.shape[0]),
                     return_eigenvectors=False)
    return float(vals[0].real)


# --- checks, keyed by workload and operation ---------------------------------

def exits_zero(arts, ref, op):
    require(arts[op].rc == 0, f"{op} exited {arts[op].rc}")


def curve_samples_ok(arts, ref):
    status = arts["curve"].table("curve.csv")["status"]
    require(len(status) == len(ref.p["lambda_samples"]) and all(s == "ok" for s in status),
            f"curve statuses {status}")


def curve_samples_match_inputs(arts, ref):
    lams = arts["curve"].column("curve.csv", "lam")
    require(list(lams) == list(ref.p["lambda_samples"]), "curve samples differ from the inputs")


def curve_non_increasing(arts, ref):
    art = arts["curve"]
    lo = art.column("curve.csv", "bracket_lo")
    hi = art.column("curve.csv", "bracket_hi")
    mid = art.column("curve.csv", "mu_critical")
    require(bool(np.all((lo <= mid) & (mid <= hi))), "mu_critical outside its bracket")
    require(bool(np.all(lo[1:] <= hi[:-1])), "curve increases between samples")


def curve_diagonal_at_fold(arts, ref):
    art = arts["curve"]
    lams = art.column("curve.csv", "lam")
    gap = art.column("curve.csv", "mu_critical") - lams
    cross = np.flatnonzero((gap[:-1] > 0) & (gap[1:] <= 0))
    require(cross.size == 1, "curve does not cross the diagonal exactly once")
    k = int(cross[0])
    diagonal = lams[k] + gap[k] / (gap[k] - gap[k + 1]) * (lams[k + 1] - lams[k])
    require(rel(diagonal, ref.fold) < 0.01,
            f"diagonal crossing {diagonal:.6g} vs scalar fold {ref.fold:.6g}")


def curve_intercepts_overlap(arts, ref):
    doc = arts["curve"].json("curve.json")
    (a_lo, a_hi), (b_lo, b_hi) = doc["lambda_star"], doc["mu_star"]
    require(max(a_lo, b_lo) <= min(a_hi, b_hi),
            f"symmetric intercepts disagree: {doc['lambda_star']} vs {doc['mu_star']}")


def curve_intercepts_below_ceiling(arts, ref):
    doc = arts["curve"].json("curve.json")
    for key in ("lambda_star", "mu_star"):
        mid = 0.5 * sum(doc[key])
        require(0.0 < mid < ref.ceiling, f"{key} {mid:.6g} not below {ref.ceiling:.6g}")


def simulate_quenched(arts, ref):
    doc = arts["simulate"].json("run.json")
    require(doc["status"] == "quenched" and doc["quench"] is not None,
            f"simulate ended {doc['status']}")


def simulate_max_nondecreasing(arts, ref):
    art = arts["simulate"]
    for key in ("max_u", "max_v"):
        col = art.column("trajectory.csv", key)
        require(bool(np.all(np.diff(col) >= 0.0)), f"{key} decreases along the run")


def simulate_time_in_window(arts, ref):
    t = arts["simulate"].json("run.json")["quench"]["time"]
    lower, upper = ref.window
    require(lower <= t <= upper, f"quench time {t:.6g} outside [{lower:.6g}, {upper:.6g}]")


def certify_c_verified(arts, ref):
    doc = arts["certify"].json("certify.json")
    require(doc["case"] == "c", f"certify case {doc['case']}, expected c")
    require(doc["verification"]["passes"] is True, "quench-bound verification failed")


def certify_c_within_own_bound(arts, ref):
    observed = arts["certify"].json("certify.json")["verification"]["observed_time"]
    require(observed is not None and observed <= 1.05 * ref.mass_bound,
            f"observed quench time {observed} beyond 1.05 x {ref.mass_bound:.6g}")


def certify_c_bound_matches(arts, ref):
    used = arts["certify"].json("certify.json")["verification"]["bound_used"]
    require(used is not None and rel(used, ref.mass_bound) <= 1e-3,
            f"reported bound {used} vs recomputed {ref.mass_bound:.6g}")


def stationary_in_lambda(arts, ref):
    status = arts["stationary"].json("verdict.json")["status"]
    require(status == "in-lambda", f"stationary verdict {status}")


def stationary_residual(arts, ref):
    a, nx, ny = ref.stencil_2d
    w, z = fields_2d(arts["stationary"], ("w", "z"), "fields.csv", nx, ny)
    for field, lam, other in ((w, ref.p["lambda"], z), (z, ref.p["mu"], w)):
        source = lam * (1.0 - other) ** -2
        res = float(np.abs(a @ field - source).max())
        require(res <= 1e-8 * float(source.max()), f"steady residual {res:.3e}")


def eigen_lambda1(arts, ref):
    lam1 = arts["eigen"].json("eigen.json")["lambda1"]
    require(rel(lam1, ref.lambda1_2d) <= 1e-10, f"lambda1 {lam1!r} vs {ref.lambda1_2d!r}")


def eigen_nu1_range(arts, ref):
    nu1 = arts["eigen"].json("eigen.json")["nu1"]
    require(0.0 < nu1 <= ref.lambda1_2d, f"nu1 {nu1} outside (0, lambda1]")


def eigen_nu1_matches_own(arts, ref):
    _, nx, ny = ref.stencil_2d
    w, z = fields_2d(arts["stationary"], ("w", "z"), "fields.csv", nx, ny)
    nu1 = arts["eigen"].json("eigen.json")["nu1"]
    own = own_nu1(ref, w, z)
    require(rel(nu1, own) <= 1e-8, f"nu1 {nu1!r} vs own linearization {own!r}")


def eigen_functions_positive(arts, ref):
    art = arts["eigen"]
    for key in ("phi", "psi"):
        require(float(art.column("eigenfunctions.csv", key).min()) > 0.0, f"{key} not positive")


def certify_a1_verified(arts, ref):
    doc = arts["certify"].json("certify.json")
    require(doc["case"] == "a1", f"certify case {doc['case']}, expected a1")
    require(doc["verification"]["passes"] is True, "decay-rate verification failed")


def certify_a1_gamma(arts, ref):
    _, nx, ny = ref.stencil_2d
    w, z = fields_2d(arts["stationary"], ("w", "z"), "fields.csv", nx, ny)
    gamma = arts["certify"].json("certify.json")["verification"]["gamma_certified"]
    want = min(ref.lambda1_2d, 0.5 * own_nu1(ref, w, z))
    require(rel(gamma, want) <= 1e-8, f"gamma_certified {gamma!r} vs {want!r}")


CHECKS = {
    "curve": {
        "curve": (curve_samples_ok, curve_samples_match_inputs, curve_non_increasing,
                  curve_diagonal_at_fold, curve_intercepts_overlap,
                  curve_intercepts_below_ceiling),
    },
    "quench": {
        "simulate": (simulate_quenched, simulate_max_nondecreasing, simulate_time_in_window),
        "certify": (certify_c_verified, certify_c_within_own_bound, certify_c_bound_matches),
    },
    "decay2d": {
        "stationary": (stationary_in_lambda, stationary_residual),
        "eigen": (eigen_lambda1, eigen_nu1_range, eigen_nu1_matches_own,
                  eigen_functions_positive),
        "certify": (certify_a1_verified, certify_a1_gamma),
    },
}


def check_op(workload: str, op: str, arts: dict, ref: Reference,
             first: dict | None) -> list[str]:
    """Run every check of one operation; returns the failure messages.

    ``first`` holds the digests of this operation's outputs in the run's
    first pass, or None in the first pass itself.
    """
    failures = []
    try:
        exits_zero(arts, ref, op)
    except CheckError as exc:
        return [str(exc)]
    for check in CHECKS[workload][op]:
        try:
            check(arts, ref)
        except (CheckError, OSError, KeyError, ValueError, TypeError) as exc:
            failures.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    if first is not None and arts[op].digests() != first:
        failures.append("outputs differ from the first pass of the run")
    return failures
