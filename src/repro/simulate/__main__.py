"""``python -m repro.simulate`` — command-line entry to the scenario engine.

Thin alias for :mod:`repro.simulate.cli` (the ``repro-simulate`` console
script).
"""

from repro.simulate.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
