"""``python -m benchmarks.ledger`` — see run.py."""

import os
import sys

sys.path.insert(
    0, os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
)

from benchmarks.ledger.run import _reexec_with_fixed_hash_seed, main  # noqa: E402

if __name__ == "__main__":
    _reexec_with_fixed_hash_seed()
    sys.exit(main())
