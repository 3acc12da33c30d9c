"""``python -m benchmarks.ledger`` from the repository root.

Puts the repository's ``src`` on the import path (so no ``PYTHONPATH``
is needed) and refuses to run where the program's sources are missing.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parents[2] / "src"

if __name__ == "__main__":
    if not (_SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {_SRC}",
              file=sys.stderr)
        sys.exit(2)
    if str(_SRC) not in sys.path:
        sys.path.insert(0, str(_SRC))
    from benchmarks.ledger.cli import main

    sys.exit(main())
