"""Identification adapters for non-experimental designs.

Each adapter produces a :class:`DistTable` whose two "arms" are the
identified marginal laws of the mediated outcome pair under treatment and
control: from raw randomization, from a binary instrument (complier laws
via Wald ratios on compound outcomes), from inverse propensity weighting
under conditional unconfoundedness, or by inverting a known mediator
misclassification matrix.  Each reads its records through one
:func:`~mechtest.probtab.encode` call, which bins the outcome when given
``bins``.  Downstream bounds and tests consume the result unchanged.

Estimated cell masses can fall slightly below zero in finite samples; they
are clipped at zero and renormalized, with the clipped mass logged and a
hard error past 5%.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .errors import (
    IdentificationError,
    IncoherenceError,
    OverlapError,
    StructuralError,
    WeakInstrumentError,
)
from .probtab import DistTable, RecordSet, encode, from_records
from .typeshares import RestrictionSet
from .bounds import sharp_null_slack

logger = logging.getLogger("mechtest")

CLIP_HARD_LIMIT = 0.05
WEAK_FIRST_STAGE = 1e-6

RANDOMIZED = "randomized"
IV = "iv"
IPW = "ipw"
MEASUREMENT_ERROR = "me"


@dataclass(frozen=True)
class StrategyTag:
    """Which identification route maps records to arm-wise laws."""

    kind: str
    l_matrix: np.ndarray = None

    def __post_init__(self):
        if self.kind not in (RANDOMIZED, IV, IPW, MEASUREMENT_ERROR):
            raise StructuralError(f"unknown identification strategy '{self.kind}'")
        if self.kind == MEASUREMENT_ERROR:
            if self.l_matrix is None:
                raise StructuralError("measurement-error strategy needs a matrix")
            object.__setattr__(self, "l_matrix", _check_l(self.l_matrix))


def _check_l(L):
    L = np.asarray(L, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise StructuralError("misclassification matrix must be square")
    if L.min() < -1e-10:
        raise StructuralError("misclassification matrix has negative entries")
    col = L.sum(axis=0)
    if np.abs(col - 1.0).max() > 1e-8:
        raise StructuralError("misclassification matrix columns must sum to one")
    return L


def _clip_and_normalize(raw, label):
    """Clip negative estimated cells, renormalize to a pmf, log adjustments."""
    clipped = float(np.clip(-raw, 0.0, None).sum())
    if clipped > CLIP_HARD_LIMIT:
        raise IdentificationError(
            f"{label}: {clipped:.3f} of estimated mass is negative; the "
            "identifying assumptions look inconsistent with the data"
        )
    pos = np.clip(raw, 0.0, None)
    total = pos.sum()
    if total <= 0.0:
        raise IdentificationError(f"{label}: estimated law has no positive mass")
    if clipped > 0.0 or abs(total - 1.0) > 1e-9:
        logger.info(
            "%s: clipped %.3g negative mass, renormalized total %.6f to 1",
            label, clipped, total,
        )
    return pos / total


def iv_complier_marginals(records: RecordSet, bins=None) -> DistTable:
    """Instrument-complier laws of (outcome, mediator) under each arm, over
    the outcome ``bins`` of :func:`~mechtest.probtab.encode`.

    Wald ratios with compound outcomes: the treated-arm cell mass uses
    ``D * 1{cell}``, the control-arm cell mass uses ``-(1-D) * 1{cell}``,
    both divided by the first stage.  Requires a binary instrument column
    and a strictly positive first stage.
    """
    if records.z is None:
        raise StructuralError("IV adapter requires the instrument column z")
    z = records.z
    if (z == 1).sum() == 0 or (z == 0).sum() == 0:
        raise WeakInstrumentError("instrument does not vary")
    d = records.d
    alpha_c = d[z == 1].mean() - d[z == 0].mean()
    if alpha_c <= WEAK_FIRST_STAGE:
        raise WeakInstrumentError(
            f"first stage {alpha_c:.3g} is zero or too weak to scale by"
        )
    enc = encode(records, bins)
    # wald[d]: E[1{D=d, cell} | Z=1] - E[1{D=d, cell} | Z=0]
    by_z = enc.cell_sums(z)
    wald = by_z[1] / (z == 1).sum() - by_z[0] / (z == 0).sum()
    mass = np.stack(
        [
            _clip_and_normalize(-wald[0] / alpha_c, "iv control arm"),
            _clip_and_normalize(wald[1] / alpha_c, "iv treated arm"),
        ]
    )
    return DistTable(support=enc.support, outcome_levels=enc.outcome_levels, mass=mass)


def ipw_marginals(records: RecordSet, eta: float = 0.01, bins=None) -> DistTable:
    """Arm-wise laws by inverse propensity weighting, over the outcome
    ``bins`` of :func:`~mechtest.probtab.encode`.

    Requires the ``pscore`` column with values inside ``(eta, 1 - eta)``;
    rows outside that band raise ``OverlapError`` listing them.
    """
    if records.pscore is None:
        raise StructuralError("IPW adapter requires the pscore column")
    ps = records.pscore
    bad = np.nonzero((ps <= eta) | (ps >= 1.0 - eta))[0]
    if bad.size:
        raise OverlapError(
            f"{bad.size} rows have propensity outside ({eta}, {1 - eta}); "
            f"first offenders: {bad[:10].tolist()}",
            rows=bad.tolist(),
        )
    enc = encode(records, bins)
    # each row is weighted by the inverse probability of its own arm
    weights = np.where(records.d == 1, 1.0 / ps, 1.0 / (1.0 - ps))
    raw = enc.cell_sums(weights=weights) / records.n
    mass = np.stack(
        [
            _clip_and_normalize(raw[0], "ipw control arm"),
            _clip_and_normalize(raw[1], "ipw treated arm"),
        ]
    )
    return DistTable(support=enc.support, outcome_levels=enc.outcome_levels, mass=mass)


def misclassify_mediator(table: DistTable, L) -> DistTable:
    """Forward map: push true-mediator masses through ``L`` (test helper)."""
    L = _check_l(L)
    K = table.n_mediators
    if L.shape != (K, K):
        raise StructuralError("misclassification matrix does not match the support")
    mass = np.einsum("ij,djq->diq", L, table.mass)
    return DistTable(
        support=table.support,
        outcome_levels=table.outcome_levels,
        mass=mass,
        n_units=table.n_units,
        n_clusters=table.n_clusters,
    )


def correct_measurement_error(table: DistTable, L) -> DistTable:
    """Recover true-mediator cell masses from a noisy mediator.

    ``L[i, j] = P(observed = m_i | true = m_j)`` must be column-stochastic
    and nonsingular.  For every (outcome, arm) the K-vector of observed
    partial masses is mapped through the inverse; solutions below -1e-8 are
    an incoherence error, smaller negatives are clipped and logged.
    """
    L = _check_l(L)
    K = table.n_mediators
    if L.shape != (K, K):
        raise StructuralError("misclassification matrix does not match the support")
    cond = np.linalg.cond(L)
    if not np.isfinite(cond) or cond > 1e12:
        raise IdentificationError(
            f"misclassification matrix is numerically singular (cond={cond:.3g})"
        )
    logger.info("measurement-error correction: cond(L) = %.3g", cond)
    inv = np.linalg.inv(L)
    mass = np.einsum("ij,djq->diq", inv, table.mass)
    if mass.min() < -1e-8:
        raise IncoherenceError(
            f"corrected masses reach {mass.min():.3g} < 0; the observed table "
            "is incompatible with the declared misclassification matrix"
        )
    clipped = float(np.clip(-mass, 0.0, None).sum())
    if clipped > 0.0:
        logger.info("measurement-error correction: clipped %.3g negative mass", clipped)
    mass = np.clip(mass, 0.0, None)
    for d in (0, 1):
        mass[d] /= mass[d].sum()
    return DistTable(
        support=table.support,
        outcome_levels=table.outcome_levels,
        mass=mass,
        n_units=table.n_units,
        n_clusters=table.n_clusters,
    )


def apply_strategy(records: RecordSet, tag: StrategyTag, bins=None) -> DistTable:
    """Dispatch records to the adapter selected by ``tag``; ``bins`` goes to
    the adapter's one :func:`~mechtest.probtab.encode`, so the outcome is
    binned before the arm-wise laws are identified."""
    if tag.kind == RANDOMIZED:
        return from_records(records, bins)
    if tag.kind == IV:
        return iv_complier_marginals(records, bins)
    if tag.kind == IPW:
        return ipw_marginals(records, bins=bins)
    return correct_measurement_error(from_records(records, bins), tag.l_matrix)


@dataclass(frozen=True)
class IvComparisonReport:
    """Feasibility slacks for the two IV testing routes.

    Route "direct" works with the identified complier laws; route
    "relabel" treats the instrument itself as the treatment and ignores
    take-up.  ``inf`` marks a route whose identified set is empty, which
    is itself a rejection.
    """

    slack_direct: float
    slack_relabel: float
    reject_direct: bool
    reject_relabel: bool

    @property
    def agree(self):
        return self.reject_direct == self.reject_relabel


def iv_relabel_comparison(records: RecordSet, r: RestrictionSet,
                          tol: float = 1e-9) -> IvComparisonReport:
    """Compare the complier-law route against the relabeled-instrument route.

    Under a totally ordered mediator with monotonicity the two verdicts
    provably coincide; without monotonicity the relabel route can miss
    violations the direct route catches.
    """

    def slack_of(table):
        try:
            return sharp_null_slack(table, r)
        except IdentificationError:
            return np.inf

    direct = slack_of(iv_complier_marginals(records))
    relabeled = RecordSet(
        y=records.y, m=records.m, d=records.z, cluster=records.cluster,
    )
    relabel = slack_of(from_records(relabeled))
    return IvComparisonReport(
        slack_direct=float(direct),
        slack_relabel=float(relabel),
        reject_direct=bool(direct > tol),
        reject_relabel=bool(relabel > tol),
    )
