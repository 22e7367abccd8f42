"""One-shot acceptance matrix: every headline claim checked at a pinned tolerance.

The tolerances are the constants in DEFAULT_TOLERANCES. Each criterion is a
pure function of the seed and dense cap (VerifyConfig), so a verify run is
reproducible bit-for-bit; run_acceptance hands criteria 4 and 5's records to
criterion 6 and this run's probe results to criterion 9. Results carry
semantic outcomes only; wall-clock times are returned alongside (for manifests
and budget tests) but are kept out of the report so two runs with one seed
serialize identically.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from .collisions import (
    DENSE_DIM_CAP,
    CollisionSpec,
    commutator_norm,
    run_collision_sequence,
)
from .combinatorics import (
    FORMULA_PAIRS,
    TYPICALITY_RHO,
    appendix_checks,
    random_distribution_pairs,
)
from .errors import CapExceededError
from .mixing import (
    _classical_records,
    _prepare,
    convergence_sweep,
    gap_series,
    graceful_checks,
    type_class_spectrum,
)
from .states import (
    ClassicalDistribution,
    HermitianOperator,
    UnitaryOperator,
    apply_unitary,
    energy_mean,
    gibbs_state,
    random_haar_unitary,
    random_hermitian,
    relative_entropy,
    shannon_entropy,
)

DEFAULT_SEED = 9

DEFAULT_TOLERANCES = {
    "dissipation_rel": 1e-9,      # |beta dE - S_rel| / S_rel
    "commutator_floor": 1e-6,     # ||[U,H]||_F above which dE > 0 is demanded
    "state_gap_floor": 1e-8,      # max|sigma-rho| above which dE > 0 is demanded
    "graceful_residual": 1e-10,   # energy, commutation and state residuals
    "oracle_equivalence": 1e-9,   # |S_mix dense - S_mix classical|
    "spectrum_rel": 1e-12,        # type-class mass in R vs strings; gap_integrals vs gap()
    "series_remainder": 2.0,      # |gap - a1/N - a2/N^2| / (|a3|/N^3), n >= 64
    "typicality_final": 5e-4,     # deficit at n = 10^4
    "increase_formula": 1e-12,    # appendix formula vs relative entropy
    "multi_brute": 1e-10,         # multi variant vs placement enumeration
    "m_sigma_rate": 0.25,         # N |N gap / (m^2 a1) - 1|, m = 2, N <= 128
}

QUBIT_H = HermitianOperator(np.diag([0.0, 1.0]))
EXCHANGE = UnitaryOperator(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))

PASS = "pass"
FAIL = "fail"
SKIPPED_CAP = "skipped: cap"
SKIPPED_NO_RECORDS = "skipped: needs criterion 4 or 5"


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = DEFAULT_SEED
    dense_cap: int = DENSE_DIM_CAP


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    status: str
    details: dict
    elapsed_s: float


@dataclass(frozen=True)
class VerifyOutcome:
    results: tuple
    report: dict


def _status(ok: bool) -> str:
    return PASS if ok else FAIL


# ---------------------------------------------------------------------------
# criterion 1: beta * Delta E = S[sigma|rho], Delta E > 0
# ---------------------------------------------------------------------------

def _c1_dissipation(cfg):
    rel_tol = DEFAULT_TOLERANCES["dissipation_rel"]
    comm_floor = DEFAULT_TOLERANCES["commutator_floor"]
    gap_floor = DEFAULT_TOLERANCES["state_gap_floor"]
    betas = np.random.default_rng(cfg.seed).uniform(0.05, 5.0, size=100)

    max_rel = 0.0
    positivity_checked = 0
    positivity_ok = True
    # one stack per d = 2 + i % 5; beta_i is default_rng(seed)'s i-th draw, and
    # H_i and U_i come from default_rng(seed + i) and default_rng(seed + 10_000 + i)
    for d in range(2, 7):
        ids = range(d - 2, 100, 5)
        beta = betas[ids]
        h_raw = random_hermitian([cfg.seed + i for i in ids], d)
        # fix each spectral range at 2 so beta*range <= 10 and the smallest
        # Gibbs eigenvalue stays resolvable by a double-precision eigensolve
        energies = np.linalg.eigvalsh(h_raw.entries)
        scale = 2.0 / (energies[:, -1] - energies[:, 0])
        h = HermitianOperator(h_raw.entries * scale[:, None, None])
        u = random_haar_unitary([cfg.seed + 10_000 + i for i in ids], d)
        rho = gibbs_state(h, beta)
        sigma = apply_unitary(rho, u)
        de = energy_mean(sigma, h) - energy_mean(rho, h)
        s_rel = relative_entropy(sigma, rho)
        rel_err = np.abs(beta * de - s_rel) / np.maximum(s_rel, 1e-300)
        max_rel = float(np.maximum(max_rel, rel_err.max()))
        checked = (commutator_norm(u, h) > comm_floor) & (
            np.abs(sigma.entries - rho.entries).max(axis=(-2, -1)) > gap_floor
        )
        positivity_checked += int(checked.sum())
        positivity_ok = positivity_ok and bool(np.all(de[checked] > 0.0))

    ok = max_rel < rel_tol and positivity_ok and positivity_checked > 0
    return _status(ok), {
        "instances": 100,
        "max_rel_err": max_rel,
        "rel_tol": rel_tol,
        "positivity_checked": positivity_checked,
        "positivity_ok": positivity_ok,
    }


# ---------------------------------------------------------------------------
# criterion 2: reservoir informatic entropy constant to 0 ulp
# ---------------------------------------------------------------------------

def _c2_reversibility(cfg):
    qubit = CollisionSpec(h=QUBIT_H, beta=1.0, u=EXCHANGE, collisions=5, reservoir_size=9)
    specs = [qubit] + [
        CollisionSpec(
            h=random_hermitian(cfg.seed + 100 + j, d),
            beta=beta,
            u=random_haar_unitary(cfg.seed + 200 + j, d),
            collisions=k,
            reservoir_size=n,
        )
        for j, (d, beta, k, n) in enumerate([(3, 0.5, 4, 7), (4, 2.0, 7, 7)])
    ]

    ok = True
    for spec in specs:
        ledger = run_collision_sequence(spec)
        column = {row.reservoir_s_info for row in ledger.rows}
        ok = ok and column == {ledger.reservoir_s_info}
        ok = ok and all(
            row.cum_delta_e == row.index * ledger.delta_e
            and row.cum_dirr_s == row.index * ledger.dirr_s
            for row in ledger.rows
        )
    return _status(ok), {"sequences": len(specs), "column_exact": ok}


# ---------------------------------------------------------------------------
# criterion 3: gracefulness residuals
# ---------------------------------------------------------------------------

def _c3_gracefulness(cfg):
    tol = DEFAULT_TOLERANCES["graceful_residual"]
    rho = gibbs_state(QUBIT_H, 1.0)
    cases = {
        "commuting": apply_unitary(rho, EXCHANGE),
        "non-commuting": apply_unitary(rho, random_haar_unitary(cfg.seed + 7, 2)),
    }
    max_energy = 0.0
    max_comm = 0.0
    max_state = 0.0
    ran = []
    for n in (1, 2, 3):
        for label, sigma in cases.items():
            rep = graceful_checks(sigma, rho, n, QUBIT_H, dense_cap=cfg.dense_cap)
            max_energy = max(max_energy, rep.energy_residual)
            max_comm = max(max_comm, rep.commutation_residual)
            max_state = max(max_state, rep.state_residual)
            ran.append(f"n={n},{label}")
    ok = max_energy < tol and max_comm < tol and max_state < tol
    return _status(ok), {
        "cases": ran,
        "max_energy_residual": max_energy,
        "max_commutation_residual": max_comm,
        "max_state_residual": max_state,
        "tol": tol,
    }


# ---------------------------------------------------------------------------
# criterion 4: dense vs classical-exact; type classes vs strings and the integral
# ---------------------------------------------------------------------------

C4_FAMILIES = [
    (2, 11, ([0.62, 0.38], [0.2, 0.8])),
    (3, 6, ([0.5, 0.3, 0.2], [0.2, 0.35, 0.45])),
]


def _string_probs(sig_p, rho_p, n_total: int, m_sigma: int = 1) -> tuple:
    """R's eigenvalue on each of the d^N strings, by direct enumeration.

    Returns (strings, q). strings is the (d^N, N) symbol array in
    lexicographic order, the last site fastest. q is the mean, over the
    C(N, m) sigma placements, of the sigma factors at the placement's sites
    times the rho factors at the other sites, multiplied in that order.
    """
    sig_p, rho_p = np.asarray(sig_p), np.asarray(rho_p)
    sites = np.indices((len(rho_p),) * n_total).reshape(n_total, -1)
    q = 0.0
    for pl in itertools.combinations(range(n_total), m_sigma):
        order = [*pl, *(k for k in range(n_total) if k not in pl)]
        q += math.prod((sig_p if k in pl else rho_p)[sites[k]] for k in order)
    return sites.T, q / math.comb(n_total, m_sigma)


def _type_mass_rel_err(spec, strings, q):
    """The worst relative error of each type's mass in R, weight (1 + excess),
    against the string enumeration (strings, q) of _string_probs (so of each
    multiplicity too, as weight = mult rho^t); None when the spectrum's types
    are not the strings'.
    """
    d = int(strings.max()) + 1      # every string of the d symbols is listed
    counts = np.stack([np.count_nonzero(strings == a, axis=1) for a in range(d)], axis=1)
    # a type's key in base N + 1, its first count most significant: keys sort as types do
    radix = (strings.shape[1] + 1) ** np.arange(d)[::-1]
    keys, of_type = np.unique(counts @ radix, return_inverse=True)
    if not np.array_equal(keys, spec.counts @ radix):
        return None
    mass = np.bincount(of_type, weights=q)
    rel = np.abs(spec.weight * (1.0 + spec.excess) - mass) / np.maximum(mass, 1e-300)
    return float(rel.max())


def _c4_oracle_equivalence(cfg):
    tol = DEFAULT_TOLERANCES["oracle_equivalence"]
    spec_tol = DEFAULT_TOLERANCES["spectrum_rel"]

    max_diff = max_mass_rel = max_gap_rel = 0.0
    types_exact = True
    ran, skipped, records = [], [], []
    for d, n_max, (rho_p, sig_p) in C4_FAMILIES:
        rho = ClassicalDistribution(rho_p)
        sig = ClassicalDistribution(sig_p)
        dense = _prepare(sig.as_density(), rho.as_density(), "dense")[0]
        s_rel = relative_entropy(sig.as_density(), rho.as_density())
        classical = _classical_records(sig, rho, s_rel, range(1, n_max + 1))
        for rec in classical:
            try:
                (dense_rec,) = dense([rec.n], cfg.dense_cap)
            except CapExceededError:
                skipped.append(f"d={d},n={rec.n}")
                continue
            max_diff = max(max_diff, abs(dense_rec.s_mix - rec.s_mix))
            records.extend([dense_rec, rec])
            ran.append(f"d={d},n={rec.n}")

        # each type's mass in R against string enumeration; gap() is the oracle
        # of the records' gap integrals, at N = n_max + 1
        spec = type_class_spectrum(sig, rho, n_max + 1)
        mass_rel = _type_mass_rel_err(spec, *_string_probs(sig_p, rho_p, n_max + 1))
        if mass_rel is None:
            types_exact = False
            continue
        oracle = spec.gap()
        max_gap_rel = max(max_gap_rel, abs(classical[-1].gap - oracle) / oracle)
        max_mass_rel = max(max_mass_rel, mass_rel)
    spectrum_ok = types_exact and max_mass_rel < spec_tol and max_gap_rel < spec_tol

    details = {
        "dense_vs_classical_cases": len(ran),
        "max_dense_vs_classical": max_diff,
        "tol": tol,
        "types_exact": types_exact,
        "max_type_mass_rel_err": max_mass_rel,
        "max_integral_vs_type_gap_rel": max_gap_rel,
    }
    if skipped:
        details["skipped_cases"] = skipped
        if max_diff < tol and spectrum_ok:
            return SKIPPED_CAP, details, records
    return _status(max_diff < tol and spectrum_ok), details, records


# ---------------------------------------------------------------------------
# criterion 5: the conjecture, classical sweep to n = 4096 against its series
# ---------------------------------------------------------------------------

SERIES_FROM_N = 64


def _c5_convergence(cfg):
    tol = DEFAULT_TOLERANCES["series_remainder"]
    rho = ClassicalDistribution([0.7, 0.3])
    sig = ClassicalDistribution([0.3, 0.7])
    records = convergence_sweep(sig, rho, [2**k for k in range(13)], method="classical-exact")
    a1, a2, a3 = gap_series(sig, rho)
    gaps = [r.gap for r in records]
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    tenfold = gaps[-1] < gaps[0] / 10.0
    # the two-term series misses the gap by a3/N^3 + O(N^-4)
    tail = [(r.n + 1, r.gap) for r in records if r.n >= SERIES_FROM_N]
    max_ratio = max(abs(gap - a1 / n - a2 / n**2) * n**3 / abs(a3) for n, gap in tail)
    ok = decreasing and tenfold and max_ratio <= tol
    details = {
        "gap_first": gaps[0],
        "gap_last": gaps[-1],
        "strictly_decreasing": decreasing,
        "tenfold_drop": tenfold,
        "a1": a1,
        "a2": a2,
        "a3": a3,
        "series_from_n": SERIES_FROM_N,
        "max_remainder_ratio": max_ratio,
        "tol": tol,
    }
    return _status(ok), details, records


# ---------------------------------------------------------------------------
# criterion 6: bounds on every record from criteria 4-5
# ---------------------------------------------------------------------------

def _c6_bounds(records):
    """Bound the records criteria 4 and 5 returned; None when neither did."""
    if records is None:
        return SKIPPED_NO_RECORDS, {}
    violations = [
        r.n for r in records if not (0.0 <= r.s_mix <= math.log(r.n + 1))
    ]
    ok = len(records) > 0 and not violations
    return _status(ok), {"records": len(records), "violations": violations}


# ---------------------------------------------------------------------------
# criterion 7: appendix combinatorics
# ---------------------------------------------------------------------------

def _c7_appendix(cfg):
    final_tol = DEFAULT_TOLERANCES["typicality_final"]
    formula_tol = DEFAULT_TOLERANCES["increase_formula"]
    checks = appendix_checks(
        ClassicalDistribution(TYPICALITY_RHO),
        random_distribution_pairs(cfg.seed, FORMULA_PAIRS),
    )
    deficits = checks["deficits"]
    typicality_ok = checks["deficits_decreasing"] and deficits[-1] < final_tol
    formula_ok = checks["max_formula_err"] < formula_tol
    rows = checks["insertion_rows"]

    ok = typicality_ok and checks["insertion_ok"] and formula_ok
    return _status(ok), {
        "deficits": deficits,
        "deficit_final_tol": final_tol,
        "typicality_ok": typicality_ok,
        "insertion_bound_ok": checks["insertion_ok"],
        "insertion_worst_margin": min(row["bound"] - row["rel_err"] for row in rows),
        "max_formula_err": checks["max_formula_err"],
        "formula_tol": formula_tol,
    }


# ---------------------------------------------------------------------------
# criterion 8: multi-sigma variant vs brute-force placement enumeration
# ---------------------------------------------------------------------------

def _brute_multi_mixing(sig: ClassicalDistribution, rho: ClassicalDistribution,
                        strings, q, m_sigma: int) -> float:
    """S_mix from the string enumeration (strings, q) of _string_probs."""
    pos = q[q > 0]
    s_r = float(-np.sum(pos * np.log(pos)))
    n_rho = strings.shape[1] - m_sigma     # strings are (d^N, N)
    return s_r - n_rho * shannon_entropy(rho) - m_sigma * shannon_entropy(sig)


def _c8_multi(cfg):
    tol = DEFAULT_TOLERANCES["multi_brute"]
    spec_tol = DEFAULT_TOLERANCES["spectrum_rel"]
    rate_tol = DEFAULT_TOLERANCES["m_sigma_rate"]
    rho = ClassicalDistribution([0.6, 0.4])
    sig = ClassicalDistribution([0.2, 0.8])

    s_rel = relative_entropy(sig.as_density(), rho.as_density())
    s_mix = {(rec.n + 1, 1): rec.s_mix for rec in _classical_records(sig, rho, s_rel, [2, 3])}
    max_diff = max_mass_rel = 0.0
    for n_total, m_sigma in [(3, 1), (4, 1), (4, 2), (5, 2), (6, 2)]:
        strings, q = _string_probs(sig.p, rho.p, n_total, m_sigma)
        if m_sigma > 1:
            # one spectrum: its gap() gives S_mix by _classical_records's operations,
            # its types each type's mass in R, as criterion 4 checks m = 1's
            spec = type_class_spectrum(sig, rho, n_total, m_sigma)
            s_mix[n_total, m_sigma] = m_sigma * s_rel - spec.gap()
            mass_rel = _type_mass_rel_err(spec, strings, q)
            max_mass_rel = max(max_mass_rel, math.inf if mass_rel is None else mass_rel)
        oracle = _brute_multi_mixing(sig, rho, strings, q, m_sigma)
        max_diff = max(max_diff, abs(s_mix[n_total, m_sigma] - oracle))

    # the gap to 2 S[sigma|rho] falls as m^2 a1/N, with a 1/N correction
    a1 = gap_series(sig, rho)[0]
    trend = [{"n_total": rec.n + 2, "s_mix": rec.s_mix, "gap_to_2_s_rel": rec.gap,
              "ratio": (rec.n + 2) * rec.gap / (2**2 * a1)}
             for rec in _classical_records(sig, rho, s_rel, [6, 14, 30, 62, 126], 2)]
    max_rate = max(t["n_total"] * abs(t["ratio"] - 1.0) for t in trend)

    ok = max_diff < tol and max_mass_rel < spec_tol and max_rate <= rate_tol
    return _status(ok), {
        "max_brute_diff": max_diff,
        "tol": tol,
        "max_type_mass_rel_err": max_mass_rel,
        "trend_m_sigma_2": trend,
        "max_rate": max_rate,
        "rate_tol": rate_tol,
    }


# ---------------------------------------------------------------------------
# criterion 9: determinism spot check
# ---------------------------------------------------------------------------

PROBE_CRITERIA = (1, 2, 5, 7, 8)


def _c9_determinism(cfg, observed):
    """Evaluate the probe criteria once more; compare with this run's results.

    A probe criterion the run left out, so absent from observed, is evaluated
    here twice.
    """
    def probe_pass(reuse):
        chunks = []
        for cid, _, fn in _CRITERIA:
            if cid in PROBE_CRITERIA:
                status, details = reuse.get(cid) or _evaluate(fn, cfg)[:2]
                chunks.append({"id": cid, "status": status, "details": details})
        return json.dumps(chunks, sort_keys=True)

    ok = probe_pass(observed) == probe_pass({})
    return _status(ok), {
        "probe_criteria": list(PROBE_CRITERIA),
        "byte_identical": ok,
    }


_CRITERIA = (
    (1, "dissipation-identity", _c1_dissipation),
    (2, "reversibility-baseline", _c2_reversibility),
    (3, "gracefulness", _c3_gracefulness),
    (4, "oracle-equivalence", _c4_oracle_equivalence),
    (5, "conjecture-convergence", _c5_convergence),
    (6, "mixing-bounds", _c6_bounds),
    (7, "appendix-combinatorics", _c7_appendix),
    (8, "multi-collision-variant", _c8_multi),
    (9, "determinism", _c9_determinism),
)


def _evaluate(fn, cfg) -> tuple:
    """(status, details), plus their S_mix records from criteria 4 and 5."""
    try:
        return fn(cfg)
    except CapExceededError as exc:
        return SKIPPED_CAP, {"reason": str(exc)}


def run_acceptance(config: VerifyConfig | None = None,
                   only: tuple | None = None) -> VerifyOutcome:
    """Run the acceptance matrix, or the criteria whose ids `only` names.

    An empty `only`, or one naming an unknown id, raises ValueError.
    """
    cfg = config or VerifyConfig()
    known = [cid for cid, _, _ in _CRITERIA]
    if only is not None and (not only or set(only) - set(known)):
        raise ValueError(f"criteria {list(only)}: name one or more of {known}")
    records = None   # S_mix records of criteria 4 and 5, bounded by criterion 6
    observed = {}    # (status, details) by criterion id, compared by criterion 9
    results = []
    for cid, name, fn in _CRITERIA:
        if only is not None and cid not in only:
            continue
        t0 = time.perf_counter()
        if cid == 6:
            status, details = fn(records)
        elif cid == 9:
            status, details = fn(cfg, observed)
        else:
            status, details, *produced = _evaluate(fn, cfg)
            if produced:
                records = (records or []) + produced[0]
        results.append(CriterionResult(cid, name, status, details, time.perf_counter() - t0))
        observed[cid] = (status, details)

    report = {
        "tool": "mixent",
        "version": __version__,
        "seed": cfg.seed,
        "dense_cap": cfg.dense_cap,
        "tolerances": dict(DEFAULT_TOLERANCES),
        "criteria": [
            {"id": r.cid, "name": r.name, "status": r.status, "details": r.details}
            for r in results
        ],
        "passed": sum(r.status == PASS for r in results),
        "failed": sum(r.status == FAIL for r in results),
        "skipped": sum(r.status.startswith("skipped") for r in results),
    }
    report["all_pass"] = report["failed"] == 0
    return VerifyOutcome(results=tuple(results), report=report)
