"""The paper's textual claims (Section 3), evaluated against sweep results.

Four claims are checked:

* C1 -- "our technique shows an average 1.3x ... performance boost for the math
  kernels over the lws=1 mapping";
* C2 -- "... and 3.7x ... over the lws=32 [mapping]";
* C3 -- "providing the kernel execution with the same lws results in a large
  performance variability: from optimal to up to 20x slower";
* C4 -- "when the hardware parallelism hp exceeds the gws of the executed
  kernel, Eq. 1 resolves to lws=1" (checked analytically over the sweep's
  configurations).

The reproduction does not target the paper's absolute numbers (the substrate
is a different simulator); each claim therefore records the measured value
next to the paper's value, and ``repro scenario report claims`` prints both
(README "Scenarios").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.optimizer import optimal_local_size
from repro.experiments.figure2 import Figure2Result
from repro.sim.config import ArchConfig


@dataclass(frozen=True)
class ClaimOutcome:
    """One claim: the paper's number, the measured number, and a pass flag."""

    claim_id: str
    description: str
    paper_value: float
    measured_value: float
    holds: bool

    def render(self) -> str:
        """One-line rendering for reports."""
        status = "holds" if self.holds else "DIVERGES"
        return (f"{self.claim_id}: paper {self.paper_value:g}, measured "
                f"{self.measured_value:.2f} -> {status} ({self.description})")


@dataclass
class ClaimResults:
    """All claim outcomes for one sweep."""

    outcomes: List[ClaimOutcome] = field(default_factory=list)

    def by_id(self, claim_id: str) -> ClaimOutcome:
        """Look up one claim outcome."""
        for outcome in self.outcomes:
            if outcome.claim_id == claim_id:
                return outcome
        raise KeyError(f"unknown claim {claim_id!r}")

    def render(self) -> str:
        """Multi-line rendering of every claim."""
        return "\n".join(outcome.render() for outcome in self.outcomes)


def evaluate_claims(result: Figure2Result,
                    configs: Optional[Sequence[ArchConfig]] = None,
                    global_sizes: Optional[Dict[str, int]] = None) -> ClaimResults:
    """Evaluate the Section-3 claims on a :class:`Figure2Result`.

    ``configs`` and ``global_sizes`` (problem name -> gws) are only needed for
    claim C4, which is analytic; when omitted, C4 is derived from the sweep
    records themselves.
    """
    claims = ClaimResults()

    # C1 / C2: average speed-up of the math kernels over the two baselines.
    math_vs_naive = result.average_speedup("lws=1", category="math")
    claims.outcomes.append(ClaimOutcome(
        claim_id="C1",
        description="average math-kernel speed-up over the naive lws=1 mapping",
        paper_value=1.3,
        measured_value=math_vs_naive,
        holds=math_vs_naive >= 1.05,
    ))
    math_vs_fixed = result.average_speedup("lws=32", category="math")
    claims.outcomes.append(ClaimOutcome(
        claim_id="C2",
        description="average math-kernel speed-up over the fixed lws=32 mapping",
        paper_value=3.7,
        measured_value=math_vs_fixed,
        holds=math_vs_fixed >= 1.5,
    ))

    # C3: a hardware-agnostic lws can be far from optimal on some machine.
    worst = max(result.worst_case_slowdown("lws=1"), result.worst_case_slowdown("lws=32"))
    claims.outcomes.append(ClaimOutcome(
        claim_id="C3",
        description="worst-case slow-down of a hardware-agnostic mapping",
        paper_value=20.0,
        measured_value=worst,
        holds=worst >= 4.0,
    ))

    # C4: Eq. 1 degenerates to lws=1 whenever hp >= gws.
    degenerate_total = 0
    degenerate_correct = 0
    if configs is not None and global_sizes:
        for config in configs:
            for gws in global_sizes.values():
                if config.hardware_parallelism >= gws:
                    degenerate_total += 1
                    if optimal_local_size(gws, config) == 1:
                        degenerate_correct += 1
    else:
        for record in result.records:
            if record.strategy != "ours":
                continue
            if record.hardware_parallelism >= record.global_size:
                degenerate_total += 1
                if record.local_size == 1:
                    degenerate_correct += 1
    fraction = degenerate_correct / degenerate_total if degenerate_total else 1.0
    claims.outcomes.append(ClaimOutcome(
        claim_id="C4",
        description="Eq. 1 resolves to lws=1 whenever hp >= gws",
        paper_value=1.0,
        measured_value=fraction,
        holds=fraction == 1.0,
    ))
    return claims
