"""usage: python -m repro.kernels --check

Run the source audit (every row of ``repro.kernels.audit.RULES``, and a
stale row fails) and the runtime allocation probes.  Prints one ``OK``
line per row and one for the probes (exit 0), or every violation on
stderr (exit 1); anything but ``--check`` prints this text (exit 2).
"""

from __future__ import annotations

import sys

from repro.kernels.audit import (
    RULES,
    audit,
    audit_facet_transient,
    audit_pass_allocations,
    stale_rows,
)


def main(argv=None) -> int:
    if list(sys.argv[1:] if argv is None else argv) != ["--check"]:
        print(__doc__, file=sys.stderr)
        return 2
    violations = stale_rows() + audit() + [
        v for ndim in (2, 3)
        for v in audit_pass_allocations(ndim) + audit_facet_transient(ndim)]
    if violations:
        print("\n".join(violations), file=sys.stderr)
        print(f"FAILED: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    for rule in RULES:
        print(f"OK [{rule.kind}]: {rule.why}")
    print("OK [probe]: the 2-D and 3-D distance pipelines allocate nothing "
          "from their second call; facet crossings stay within their bound")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
