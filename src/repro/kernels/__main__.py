"""``python -m repro.kernels --check``: run the duplication self-audit."""

from __future__ import annotations

import argparse
import sys

from repro.kernels.audit import (
    ARENA_AUDITED_PACKAGES,
    AUDITED_PACKAGES,
    CENSUS_AUDITED_PACKAGES,
    CENSUS_LOOP_HOME,
    SINGLE_PATH_PACKAGES,
    audit_census_loops,
    audit_pass_allocations,
    audit_particle_construction,
    audit_single_path,
    audit_vec_definitions,
    audit_xs_table_access,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels",
        description="Kernel-layer self-audit.",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail if any *_vec physics implementation exists outside "
        "repro/kernels, any hot path constructs AoS particle records, "
        "any driver re-implements the census loop outside "
        "repro/core/stepper.py, any driver forks on whether it has "
        "replica books, the event handlers or their kernel dispatches "
        "exist outside repro/core/event_pass.py, a dimension twin of "
        "the tally flush, point location or collide/cross_facet returns, "
        "a per-pass replica-books verb loops over replicas, the pool's "
        "launch machinery is reached from outside repro/parallel/pool.py, "
        "or the 2-D or 3-D distance pipeline allocates from its second call",
    )
    args = parser.parse_args(argv)
    if not args.check:
        parser.print_help()
        return 2
    violations = (
        audit_vec_definitions()
        + audit_particle_construction()
        + audit_census_loops()
        + audit_xs_table_access()
        + audit_single_path()
        + audit_pass_allocations(2)
        + audit_pass_allocations(3)
    )
    if violations:
        for v in violations:
            print(v, file=sys.stderr)
        print(f"FAILED: {len(violations)} kernel/storage violation(s)",
              file=sys.stderr)
        return 1
    pkgs = ", ".join(AUDITED_PACKAGES)
    arena_pkgs = ", ".join(ARENA_AUDITED_PACKAGES)
    print(f"OK: no *_vec physics implementations outside repro/kernels "
          f"({pkgs} audited)")
    print(f"OK: no AoS particle or scalar stream construction in hot paths "
          f"({arena_pkgs} audited), no per-index history walk in volume")
    census_pkgs = ", ".join(CENSUS_AUDITED_PACKAGES)
    print(f"OK: no census loops outside {CENSUS_LOOP_HOME} "
          f"({census_pkgs} audited)")
    print("OK: no direct cross-section table access outside repro/xs "
          "(all packages audited)")
    single_pkgs = ", ".join(SINGLE_PATH_PACKAGES)
    print(f"OK: no None test on the replica books, no *_vec kernel "
          f"alias and one event pass in any dimension "
          f"({single_pkgs} audited); one tally flush, point location, "
          f"collide/cross_facet body and config for every dimension; no "
          f"replica loop in the books' per-pass verbs; one pooled launch")
    print("OK: the 2-D and 3-D distance pipelines allocate nothing from "
          "their second call")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
