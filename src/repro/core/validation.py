"""Conservation validation.

Reflective boundaries make conservation checks exact (paper §IV-C): nothing
leaks, so every electron-volt injected by the source is either deposited on
the tally mesh or still in flight at census, and every history is either
censused or terminated.  The §IX extensions each add one explicit ledger
term, keeping the balance exact:

* vacuum boundaries — energy carried out by escaping particles;
* fission — energy injected with banked secondaries;
* Russian roulette — weight deleted with roulette kills minus weight
  created restoring survivors (unbiased in expectation; ledgered exactly
  per run).

These invariants hold to floating-point rounding by construction of the
collision accounting (see :func:`repro.kernels.batch.collide`) and are
enforced across the test suite, including property-based tests.
"""

from __future__ import annotations

from repro.core.simulation import TransportResult

__all__ = ["energy_balance_error", "population_accounted"]


def energy_balance_error(result: TransportResult) -> float:
    """Relative error of the full energy ledger.

    ``injected = source + fission_injected`` must equal
    ``deposited + in_flight + escaped + roulette_losses − roulette_gains``
    to rounding, for any valid run.
    """
    c = result.counters
    injected = result.config.total_source_energy_ev() + c.fission_injected_energy
    accounted = (
        result.deposited_energy_ev()
        + result.in_flight_energy_ev()
        + c.escaped_energy
        + c.roulette_loss_energy
        - c.roulette_gain_energy
    )
    return abs(accounted - injected) / injected


def population_accounted(result: TransportResult) -> bool:
    """Every history (primaries and secondaries) is alive, terminated, or
    escaped."""
    c = result.counters
    total = c.nparticles
    return result.alive_count() + c.terminations + c.escapes == total