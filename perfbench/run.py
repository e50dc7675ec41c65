"""Entry point of the sparsecube benchmark; run it from the repository root.

    python3 perfbench/run.py --workload scan-clustered --seed 1 --seconds 16 --trace 0

It imports sparsecube from the checkout's own `src/`, so it measures the
source tree it sits in, and refuses to run where that tree is missing.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "sparsecube" / "__init__.py").is_file():
        print(f"no sparsecube source under {ROOT / 'src'}: run from a sparsecube checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import harness

    return harness.main(sys.argv[1:], ROOT)


if __name__ == "__main__":
    sys.exit(main())
